/**
 * @file
 * The observers a Simulator owns, as the components that hook them see
 * them: non-owning pointers, each null when the configuration leaves
 * that observer off. A null check is the whole disarmed hot path.
 *
 * The Simulator builds the observers first and hands this bundle to the
 * MemorySystem, each Tile's Network, the SyncModel and an attached
 * SkewTracker; the API layer and the ThreadManager reach the same
 * objects through their Simulator.
 */

#pragma once

namespace graphite
{

namespace check
{
class FaultPlan;
}

namespace race
{
class Detector;
}

namespace obs
{

class SpanSink;
class TraceSink;

namespace accuracy
{
class AccuracyObservatory;
}

struct Observers
{
    TraceSink* trace = nullptr;
    SpanSink* spans = nullptr;
    accuracy::AccuracyObservatory* accuracy = nullptr;
    race::Detector* race = nullptr;
    check::FaultPlan* faults = nullptr;
};

} // namespace obs
} // namespace graphite
