/**
 * @file
 * A target tile: compute core model + network endpoint (paper §2).
 *
 * "Each tile is composed of a compute core, a network switch and a part
 * of the memory subsystem." The memory-system slice (caches, directory
 * slice, DRAM controller) is owned by the simulation-wide MemorySystem
 * and indexed by tile id; the Tile aggregates the per-tile core model and
 * network endpoint and tracks thread occupancy.
 */

#pragma once

#include <atomic>
#include <memory>

#include "common/fixed_types.h"
#include "network/network.h"
#include "perf/core_model.h"

namespace graphite
{

class Config;

/** One simulated tile. */
class Tile
{
  public:
    Tile(tile_id_t id, const Config& cfg, NetworkFabric& fabric,
         Transport& transport, const obs::Observers& observers)
        : id_(id),
          core_(std::make_unique<CoreModel>(id, cfg)),
          network_(std::make_unique<Network>(id, fabric, transport,
                                             observers))
    {}

    tile_id_t id() const { return id_; }
    CoreModel& core() { return *core_; }
    const CoreModel& core() const { return *core_; }
    Network& network() { return *network_; }

    /** True while an application thread occupies this tile. */
    bool occupied() const { return occupied_.load(); }
    void setOccupied(bool v) { occupied_.store(v); }

    /**
     * True while the occupying thread is runnable (not blocked in a
     * system call or application synchronization). Maintained by the
     * API layer; read by the metrics sampler's skew columns.
     */
    bool running() const { return running_.load(); }
    void setRunning(bool v) { running_.store(v); }

  private:
    tile_id_t id_;
    std::unique_ptr<CoreModel> core_;
    std::unique_ptr<Network> network_;
    std::atomic<bool> occupied_{false};
    std::atomic<bool> running_{false};
};

} // namespace graphite
