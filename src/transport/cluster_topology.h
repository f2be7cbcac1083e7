/**
 * @file
 * Simulated host-cluster topology.
 *
 * Graphite stripes target tiles across host processes (paper §3.5: "The
 * mapping between tiles and processes is currently implemented by simply
 * striping the tiles across the processes"). This class is the single
 * source of truth for:
 *
 *  - tile -> host process (striping),
 *  - transport endpoint numbering (tiles, one LCP per process, one MCP).
 *
 * In the original system each process was a real OS process on a real
 * machine; here processes are simulated within one address space. The
 * analytic host model (src/host) derives message locality for any
 * process and machine layout from the fabric's tile-pair traffic matrix
 * (see DESIGN.md, substitution 2).
 */

#pragma once

#include <cstdint>

#include "common/fixed_types.h"

namespace graphite
{

/** Transport endpoint identifier. */
using endpoint_id_t = std::int32_t;

/** Immutable description of how a simulation is laid out on the cluster. */
class ClusterTopology
{
  public:
    /**
     * @param total_tiles        number of target tiles
     * @param num_processes      number of simulated host processes
     */
    ClusterTopology(tile_id_t total_tiles, proc_id_t num_processes);

    tile_id_t totalTiles() const { return totalTiles_; }
    proc_id_t numProcesses() const { return numProcesses_; }

    /** Host process that owns tile @p tile (striped assignment). */
    proc_id_t processForTile(tile_id_t tile) const;

    /** @name Endpoint numbering
     * Tiles occupy endpoints [0, totalTiles); each process's LCP follows;
     * the single MCP is the last endpoint.
     * @{
     */
    endpoint_id_t tileEndpoint(tile_id_t tile) const;
    endpoint_id_t lcpEndpoint(proc_id_t proc) const;
    endpoint_id_t mcpEndpoint() const;
    endpoint_id_t numEndpoints() const;
    /** @} */

  private:
    tile_id_t totalTiles_;
    proc_id_t numProcesses_;
};

} // namespace graphite
