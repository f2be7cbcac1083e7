#include "transport/cluster_topology.h"

#include "common/log.h"

namespace graphite
{

ClusterTopology::ClusterTopology(tile_id_t total_tiles,
                                 proc_id_t num_processes)
    : totalTiles_(total_tiles), numProcesses_(num_processes)
{
    if (total_tiles <= 0)
        fatal("cluster topology: total_tiles must be positive (got {})",
              total_tiles);
    if (num_processes <= 0)
        fatal("cluster topology: num_processes must be positive (got {})",
              num_processes);
    if (num_processes > total_tiles)
        fatal("cluster topology: more processes ({}) than tiles ({})",
              num_processes, total_tiles);
}

proc_id_t
ClusterTopology::processForTile(tile_id_t tile) const
{
    GRAPHITE_ASSERT(tile >= 0 && tile < totalTiles_);
    return tile % numProcesses_;
}

endpoint_id_t
ClusterTopology::tileEndpoint(tile_id_t tile) const
{
    GRAPHITE_ASSERT(tile >= 0 && tile < totalTiles_);
    return tile;
}

endpoint_id_t
ClusterTopology::lcpEndpoint(proc_id_t proc) const
{
    GRAPHITE_ASSERT(proc >= 0 && proc < numProcesses_);
    return totalTiles_ + proc;
}

endpoint_id_t
ClusterTopology::mcpEndpoint() const
{
    return totalTiles_ + numProcesses_;
}

endpoint_id_t
ClusterTopology::numEndpoints() const
{
    return totalTiles_ + numProcesses_ + 1;
}

} // namespace graphite
