#include "snapshot/checkpoint.h"

#include "core/simulator.h"
#include "snapshot/snapshot.h"

namespace graphite::snapshot
{

namespace
{

constexpr std::uint32_t TAG_CONFIG = sectionTag("CFG ");
constexpr std::uint32_t TAG_CORES = sectionTag("CORE");
constexpr std::uint32_t TAG_MEMORY = sectionTag("MEM ");
constexpr std::uint32_t TAG_NETWORK = sectionTag("NET ");
constexpr std::uint32_t TAG_SYNC = sectionTag("SYNC");
constexpr std::uint32_t TAG_THREADS = sectionTag("THRD");
constexpr std::uint32_t TAG_APP = sectionTag("APP ");

/**
 * The whole checkpoint, in both directions. The CFG section is the
 * target-architecture signature: only knobs that change the *shape* of
 * serialized state belong there; each component's serialize() checks
 * its own internals (cache geometry, directory scheme, mesh link
 * counts) with more specific errors. Host-side knobs (host/threads,
 * scheduler mode, telemetry) are deliberately absent: a checkpoint may
 * be resumed under any host configuration.
 */
void
serializeCheckpoint(Archive& ar, Simulator& sim,
                    std::vector<std::uint8_t>& app_blob)
{
    const Config& cfg = sim.config();
    const tile_id_t tiles = sim.totalTiles();
    ar.section(TAG_CONFIG, "config signature");
    ar.expect<std::uint32_t>(tiles, "tile count");
    ar.expect<std::uint32_t>(
        cfg.getInt("perf_model/l2_cache/line_size"), "cache line size");
    ar.expect(cfg.getString("caching_protocol/type"),
              "coherence protocol");
    ar.expect(sim.syncModel().name(), "sync model");

    ar.section(TAG_CORES, "core models");
    ar.expect<std::uint32_t>(tiles, "core section tile count");
    for (tile_id_t t = 0; t < tiles; ++t)
        sim.tile(t).core().serialize(ar);

    ar.section(TAG_MEMORY, "memory system");
    sim.memory().serialize(ar);
    ar.section(TAG_NETWORK, "network fabric");
    sim.fabric().serialize(ar);
    ar.section(TAG_SYNC, "sync model");
    sim.syncModel().serialize(ar);
    ar.section(TAG_THREADS, "thread manager");
    sim.threadManager().serialize(ar);
    ar.section(TAG_APP, "application blob");
    ar.bytes(app_blob);
}

} // namespace

std::vector<std::uint8_t>
saveCheckpoint(Simulator& sim, const std::vector<std::uint8_t>& app_blob)
{
    SnapshotWriter w;
    Archive ar(w);
    std::vector<std::uint8_t> blob = app_blob;
    serializeCheckpoint(ar, sim, blob);
    return w.finish();
}

std::vector<std::uint8_t>
restoreCheckpoint(Simulator& sim, const std::vector<std::uint8_t>& data)
{
    SnapshotReader r(data);
    Archive ar(r);
    std::vector<std::uint8_t> app_blob;
    serializeCheckpoint(ar, sim, app_blob);
    r.expectEnd();
    return app_blob;
}

void
saveCheckpointFile(Simulator& sim, const std::string& path,
                   const std::vector<std::uint8_t>& app_blob)
{
    writeFile(path, saveCheckpoint(sim, app_blob));
}

std::vector<std::uint8_t>
restoreCheckpointFile(Simulator& sim, const std::string& path)
{
    return restoreCheckpoint(sim, readFile(path));
}

} // namespace graphite::snapshot
