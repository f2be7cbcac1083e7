#include "common/lockdep.h"
#include "mem/memory_system.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "check/fault.h"
#include "common/config.h"
#include "common/log.h"
#include "common/strfmt.h"
#include "snapshot/snapshot.h"
#include "obs/span/span.h"
#include "obs/span/span_sink.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace_event.h"
#include "race/detector.h"

namespace graphite
{

namespace
{

std::unique_ptr<Cache>
makeCache(const Config& cfg, const std::string& key,
          const std::string& label, std::uint64_t line_size)
{
    if (!cfg.getBool(key + "/enabled", true))
        return nullptr;
    return std::make_unique<Cache>(
        label, cfg.getInt(key + "/cache_size"),
        static_cast<int>(cfg.getInt(key + "/associativity")), line_size);
}

void
sortUnique(std::vector<tile_id_t>& ids)
{
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/**
 * Translate one message's latency decomposition into span stage marks.
 * The three components are laid out serialization -> queueing -> hop
 * starting at @p begin; their durations sum to the message latency, so
 * the span's exact-accounting invariant is preserved.
 */
void
markNet(obs::SpanBuilder* sb, const NetBreakdown& bd, cycle_t begin,
        bool reply)
{
    if (sb == nullptr)
        return;
    using obs::SpanStage;
    sb->add(reply ? SpanStage::ReplySer : SpanStage::ReqSer, begin,
            bd.serialization);
    begin += bd.serialization;
    sb->add(reply ? SpanStage::ReplyQueue : SpanStage::ReqQueue, begin,
            bd.queue);
    begin += bd.queue;
    sb->add(reply ? SpanStage::ReplyHop : SpanStage::ReqHop, begin,
            bd.hop);
}

/** DRAM breakdown as span stage marks: queueing then device+service. */
void
markDram(obs::SpanBuilder* sb, const DramController::Breakdown& bd,
         cycle_t begin)
{
    if (sb == nullptr)
        return;
    using obs::SpanStage;
    sb->add(SpanStage::DramQueue, begin, bd.queue);
    sb->add(SpanStage::DramService, begin + bd.queue, bd.service);
}

} // namespace

MemorySystem::MemorySystem(const ClusterTopology& topo,
                           NetworkFabric& fabric, const Config& cfg,
                           const obs::Observers& observers)
    : topo_(topo),
      fabric_(fabric),
      obs_(observers),
      tiles_(topo.totalTiles()),
      shards_(topo.totalTiles())
{
    // Stamp lock instances: ORDERED classes (lock_order.def) require
    // ascending acquisition, keyed by tile/home id.
    for (tile_id_t t = 0; t < topo.totalTiles(); ++t) {
        tiles_[t].mutex.setInstance(t);
        shards_[t].mutex.setInstance(t);
        shards_[t].versionMutex.setInstance(t);
    }
    lineSize_ = cfg.getInt("perf_model/l2_cache/line_size", 64);
    l1Latency_ = cfg.getInt("perf_model/l1_dcache/access_latency", 1);
    l2Latency_ = cfg.getInt("perf_model/l2_cache/access_latency", 9);
    dirLatency_ =
        cfg.getInt("caching_protocol/directory_access_latency", 10);
    classify_ = cfg.getBool("mem/miss_classification", true);
    std::string protocol =
        cfg.getString("caching_protocol/type", "dir_msi");
    if (protocol != "dir_msi" && protocol != "dir_mesi")
        fatal("unknown caching protocol '{}'", protocol);
    mesi_ = protocol == "dir_mesi";

    DirectoryType dtype = parseDirectoryType(
        cfg.getString("caching_protocol/directory_type", "full_map"));
    int max_sharers =
        static_cast<int>(cfg.getInt("caching_protocol/max_sharers", 4));
    cycle_t trap_penalty = cfg.getInt(
        "caching_protocol/limitless_software_trap_penalty", 100);

    double freq = cfg.getDouble("general/clock_frequency_ghz", 1.0);
    double dram_latency_ns =
        cfg.getDouble("perf_model/dram/latency_ns", 100.0);
    auto dram_latency = static_cast<cycle_t>(dram_latency_ns * freq);
    double total_bw_gbps =
        cfg.getDouble("perf_model/dram/total_bandwidth_gbps", 5.13);
    // GB/s divided by GHz gives bytes per cycle; the total off-chip
    // bandwidth is split evenly across per-tile controllers (§4.4).
    double bytes_per_cycle =
        total_bw_gbps / freq / static_cast<double>(topo.totalTiles());
    bool dram_queue =
        cfg.getBool("perf_model/dram/queue_model_enabled", true);

    for (tile_id_t t = 0; t < topo.totalTiles(); ++t) {
        TileMemory& tm = tiles_[t];
        std::string suffix = "." + std::to_string(t);
        tm.l1i = makeCache(cfg, "perf_model/l1_icache",
                           "l1_icache" + suffix, lineSize_);
        tm.l1d = makeCache(cfg, "perf_model/l1_dcache",
                           "l1_dcache" + suffix, lineSize_);
        tm.l2 = makeCache(cfg, "perf_model/l2_cache", "l2_cache" + suffix,
                          lineSize_);
        if (!tm.l2)
            fatal("the L2 cache cannot be disabled (it anchors "
                  "coherence)");
        Shard& sh = shards_[t];
        sh.directory = std::make_unique<Directory>(
            dtype, max_sharers, topo.totalTiles(), trap_penalty);
        sh.dram = std::make_unique<DramController>(
            dram_latency, bytes_per_cycle,
            dram_queue ? &fabric.progress() : nullptr,
            cfg.getInt("network/queue_outlier_window", 100000),
            cfg.getInt("network/queue_max_backlog", 10000));
    }

    manager_ = std::make_unique<MemoryManager>(
        topo.totalTiles(),
        cfg.getInt("stack/stack_size_per_thread", 2097152));
}

MemorySystem::~MemorySystem() = default;

tile_id_t
MemorySystem::homeTile(addr_t addr) const
{
    return static_cast<tile_id_t>((addr / lineSize_) %
                                  static_cast<addr_t>(topo_.totalTiles()));
}

cycle_t
MemorySystem::msg(tile_id_t src, tile_id_t dst, size_t payload_bytes,
                  cycle_t send_time, NetBreakdown* bd,
                  obs::accuracy::ViolationPoint point)
{
    // Fast-forward skips the whole modelEx call: the network model's
    // routed totals and the fabric's locality counters move together
    // inside it, so skipping both keeps the conservation invariants.
    if (fastForward()) {
        if (bd != nullptr)
            *bd = NetBreakdown{};
        return 0;
    }
    NetBreakdown b =
        fabric_.modelEx(PacketType::Memory, src, dst,
                        payload_bytes + NetPacket::HEADER_BYTES,
                        send_time);
    if (bd != nullptr)
        *bd = b;
    // Every coherence leg funnels through here, so this one hook gives
    // the accuracy observatory transaction-completion coverage: the
    // modeled arrival time is compared against the destination tile's
    // local clock (pure observation, never feeds back into timing).
    if (obs_.accuracy)
        obs_.accuracy->onDelivery(point, src, dst, send_time + b.total);
    return b.total;
}

// ------------------------------------------------------------------ locking

lockdep::UniqueLock
MemorySystem::lockCounted(CountedMutex& m, const char* file, int line)
{
    lockdep::UniqueLock lock(m, std::defer_lock);
    if (!lock.try_lock(file, line)) {
        auto t0 = std::chrono::steady_clock::now();
        lock.lock(file, line);
        auto waited = std::chrono::steady_clock::now() - t0;
        addSerialized(m.contended);
        addSerialized(
            m.waitNs,
            static_cast<stat_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    waited)
                    .count()));
    }
    addSerialized(m.acquisitions);
    return lock;
}

void
MemorySystem::holdTileLockForTest(tile_id_t tile, std::uint64_t ns,
                                  std::atomic<bool>* held)
{
    lockdep::Guard lock(tiles_[tile].mutex);
    if (held != nullptr)
        held->store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

void
MemorySystem::holdShardLockForTest(tile_id_t tile, std::uint64_t ns,
                                   std::atomic<bool>* held)
{
    lockdep::Guard lock(shards_[tile].mutex);
    if (held != nullptr)
        held->store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// --------------------------------------------------------------- accounting

void
MemorySystem::bumpVersions(addr_t addr, size_t size)
{
    if (!classify_ || fastForward())
        return;
    addr_t line = lineAlign(addr);
    Shard& sh = shards_[homeTile(line)];
    lockdep::Guard vl(sh.versionMutex);
    auto& versions = sh.wordVersions[line];
    if (versions.empty())
        versions.resize(lineSize_ / WORD_BYTES, 0);
    std::uint64_t first = (addr - line) / WORD_BYTES;
    std::uint64_t last = (addr + size - 1 - line) / WORD_BYTES;
    for (std::uint64_t w = first; w <= last; ++w)
        ++versions[w];
}

void
MemorySystem::snapshotLoss(tile_id_t tile, addr_t line_addr,
                           EvictReason reason)
{
    if (!classify_ || fastForward())
        return;
    // Caller holds tile's lock (lostLines) and the line's home shard.
    LostLine& lost = tiles_[tile].lostLines[line_addr];
    lost.reason = reason;
    Shard& sh = shards_[homeTile(line_addr)];
    lockdep::Guard vl(sh.versionMutex);
    auto it = sh.wordVersions.find(line_addr);
    if (it != sh.wordVersions.end())
        lost.versions = it->second;
    else
        lost.versions.clear();
}

MissClass
MemorySystem::classifyMiss(tile_id_t tile, addr_t line_addr, addr_t addr,
                           size_t size)
{
    if (!classify_)
        return MissClass::None;
    TileMemory& tm = tiles_[tile];
    if (!tm.everCached.count(line_addr))
        return MissClass::Cold;
    auto it = tm.lostLines.find(line_addr);
    if (it == tm.lostLines.end() ||
        it->second.reason == EvictReason::Replacement)
        return MissClass::Capacity;

    // Lost to coherence: true sharing iff any word this access touches
    // was written (version bumped) since we lost the line.
    const LostLine& lost = it->second;
    Shard& sh = shards_[homeTile(line_addr)];
    lockdep::Guard vl(sh.versionMutex);
    auto vit = sh.wordVersions.find(line_addr);
    if (vit == sh.wordVersions.end())
        return MissClass::FalseSharing;
    const auto& now_versions = vit->second;
    std::uint64_t first = (addr - line_addr) / WORD_BYTES;
    std::uint64_t last = (addr + size - 1 - line_addr) / WORD_BYTES;
    for (std::uint64_t w = first;
         w <= last && w < now_versions.size(); ++w) {
        std::uint32_t then =
            w < lost.versions.size() ? lost.versions[w] : 0;
        if (now_versions[w] != then)
            return MissClass::TrueSharing;
    }
    return MissClass::FalseSharing;
}

void
MemorySystem::recordMiss(tile_id_t tile, TileMemory& tm, MissClass mc,
                         cycle_t time)
{
    switch (mc) {
      case MissClass::Cold: ++tm.stats.l2ColdMisses; break;
      case MissClass::Capacity: ++tm.stats.l2CapacityMisses; break;
      case MissClass::TrueSharing: ++tm.stats.l2TrueSharingMisses; break;
      case MissClass::FalseSharing:
        ++tm.stats.l2FalseSharingMisses;
        break;
      case MissClass::Upgrade: ++tm.stats.l2UpgradeMisses; break;
      case MissClass::None: return;
    }
    if (obs_.trace)
        obs_.trace->instant(static_cast<std::uint32_t>(tile), "l2.miss",
                            time, "class", static_cast<std::int64_t>(mc));
}

// ----------------------------------------------------------- functional ops

void
MemorySystem::invalidateTile(tile_id_t holder, addr_t line_addr,
                             bool coherence,
                             std::vector<std::uint8_t>* data_out)
{
    // Caller holds the holder's tile lock and the line's home shard.
    TileMemory& tm = tiles_[holder];
    if (tm.l1d)
        tm.l1d->invalidate(line_addr);
    if (tm.l1i)
        tm.l1i->invalidate(line_addr);
    auto ev = tm.l2->invalidate(line_addr);
    if (ev) {
        if (coherence)
            snapshotLoss(holder, line_addr, EvictReason::Invalidation);
        if (data_out)
            *data_out = std::move(ev->data);
    }
}

void
MemorySystem::handleL2Eviction(tile_id_t tile, const Eviction& ev,
                               cycle_t now)
{
    // Caller holds the evicting tile's lock and the victim's home shard.
    TileMemory& tm = tiles_[tile];
    // Inclusion: L1 copies of the victim must go too.
    if (tm.l1d)
        tm.l1d->invalidate(ev.lineAddr);
    if (tm.l1i)
        tm.l1i->invalidate(ev.lineAddr);

    snapshotLoss(tile, ev.lineAddr, EvictReason::Replacement);

    tile_id_t home = homeTile(ev.lineAddr);
    DirectoryEntry& entry = shards_[home].directory->entry(ev.lineAddr);
    // Victim handling runs inside the miss that displaced the line, so
    // its span nests under the miss span (same trace ID) — the
    // off-critical-path cost stays out of the parent's accounting.
    std::optional<obs::SpanBuilder> span;
    if (obs_.spans)
        span.emplace(*obs_.spans,
                     ev.dirty ? obs::SpanKind::Writeback
                              : obs::SpanKind::Evict,
                     tile, home, now);
    if (ev.dirty) {
        // Dirty writeback: data message to home, memory update. Off the
        // requester's critical path, so the latency is modeled (traffic
        // and queue occupancy) but not accumulated into the access.
        ++tm.stats.writebacks;
        addSerialized(tm.writebacks);
        obs::telemetry::FlightRecorder::record(
            obs::telemetry::FrEvent::Writeback, tile, now, ev.lineAddr,
            static_cast<std::uint64_t>(home));
        NetBreakdown nbd;
        cycle_t m = msg(tile, home, lineSize_ + CTRL_BYTES, now,
                        span ? &nbd : nullptr,
                        obs::accuracy::ViolationPoint::MemWriteback);
        DramController::Breakdown dbd{};
        if (!fastForward())
            dbd = shards_[home].dram->accessEx(now,
                                               lineSize_ + CTRL_BYTES);
        if (span) {
            markNet(&*span, nbd, now, /*reply=*/false);
            markDram(&*span, dbd, now + m);
            span->finish(now + m + dbd.total);
        }
        if (!(obs_.faults &&
              obs_.faults->shouldFire(check::FaultMode::LostWriteback,
                                      ev.lineAddr)))
            backing_.write(ev.lineAddr, ev.data.data(), ev.data.size());
        GRAPHITE_ASSERT(entry.state() == DirectoryState::Modified &&
                        entry.owner() == tile);
        entry.setState(DirectoryState::Uncached);
        entry.setOwner(INVALID_TILE_ID);
        entry.clearSharers();
    } else {
        // Clean eviction notification keeps the directory precise.
        NetBreakdown nbd;
        cycle_t m = msg(tile, home, CTRL_BYTES, now,
                        span ? &nbd : nullptr,
                        obs::accuracy::ViolationPoint::MemWriteback);
        if (span) {
            markNet(&*span, nbd, now, /*reply=*/false);
            span->finish(now + m);
        }
        if (entry.state() == DirectoryState::Modified &&
            entry.owner() == tile) {
            // Exclusive (clean-owned) line: ownership simply lapses;
            // memory is already current.
            entry.setState(DirectoryState::Uncached);
            entry.setOwner(INVALID_TILE_ID);
            entry.clearSharers();
        } else {
            entry.removeSharer(tile);
            if (entry.state() == DirectoryState::Shared &&
                entry.numSharers() == 0) {
                entry.setState(DirectoryState::Uncached);
            }
        }
    }
}

void
MemorySystem::fillL1(Cache* l1, const CacheLine& l2line)
{
    if (!l1)
        return;
    if (l1->find(l2line.lineAddr) != nullptr)
        return;
    // L1 is write-through: copies are always clean Shared; victims drop.
    l1->insert(l2line.lineAddr, CacheState::Shared, l2line.data);
}

// ---------------------------------------- the MSI/MESI coherence transaction

cycle_t
MemorySystem::fetchLineLocked(tile_id_t tile, addr_t line_addr,
                              bool for_write, addr_t addr, size_t size,
                              cycle_t now, MissClass& miss_class)
{
    TileMemory& tm = tiles_[tile];
    tile_id_t home = homeTile(line_addr);
    Directory& dir = *shards_[home].directory;

    CacheLine* existing = tm.l2->find(line_addr);
    bool upgrade = for_write && existing != nullptr &&
                   existing->state == CacheState::Shared;
    GRAPHITE_ASSERT(upgrade || existing == nullptr);

    // Fuzz-harness fault injection: a sabotaged DRAM fill returns one
    // flipped bit, emulating a stale/corrupt memory response.
    auto fill_from_memory = [&](std::vector<std::uint8_t>& d) {
        d.resize(lineSize_);
        backing_.read(line_addr, d.data(), lineSize_);
        if (obs_.faults &&
            obs_.faults->shouldFire(check::FaultMode::StaleDramFill,
                                    line_addr))
            d[0] ^= 0x01;
    };

    // Functional-only warmup: the coherence transaction below still
    // moves data and permissions, but DRAM timing and miss
    // classification are paused.
    const bool ff = fastForward();
    miss_class = ff        ? MissClass::None
                 : upgrade ? MissClass::Upgrade
                           : classifyMiss(tile, line_addr, addr, size);
    obs::telemetry::FlightRecorder::record(
        obs::telemetry::FrEvent::MissPath, tile, now, line_addr,
        for_write ? 1 : 0);

    // The miss span (if one is live) belongs to the access that called
    // us; every latency accumulation below mirrors into a stage mark so
    // the marks sum exactly to the returned latency.
    obs::SpanBuilder* sb = obs_.spans ? obs::SpanBuilder::active() : nullptr;

    cycle_t lat = 0;
    // Request to the home directory.
    {
        NetBreakdown nbd;
        lat += msg(tile, home, CTRL_BYTES, now, sb ? &nbd : nullptr);
        if (sb)
            markNet(sb, nbd, now, /*reply=*/false);
    }
    if (sb)
        sb->add(obs::SpanStage::Directory, now + lat, dirLatency_);
    lat += dirLatency_;

    DirectoryEntry& entry = dir.entry(line_addr);
    std::vector<std::uint8_t> data;
    bool grant_exclusive = false; // MESI: sole clean copy

    switch (entry.state()) {
      case DirectoryState::Uncached: {
        GRAPHITE_ASSERT(!upgrade);
        // Memory fetch at the home controller.
        if (!ff) {
            auto dbd = shards_[home].dram->accessEx(
                now + lat, lineSize_ + CTRL_BYTES);
            markDram(sb, dbd, now + lat);
            lat += dbd.total;
        }
        fill_from_memory(data);
        if (mesi_ && !for_write)
            grant_exclusive = true;
        break;
      }

      case DirectoryState::Shared: {
        if (for_write) {
            // Invalidate every other sharer; round trips overlap, so the
            // charged latency is the max over sharers.
            cycle_t max_rt = 0;
            for (tile_id_t s : entry.sharers()) {
                if (s == tile)
                    continue;
                if (obs_.faults &&
                    obs_.faults->shouldFire(
                        check::FaultMode::DropInvalidation, line_addr))
                    continue; // injected fault: sharer keeps stale copy
                ++tm.stats.invalidationsSent;
                cycle_t rt =
                    msg(home, s, CTRL_BYTES, now + lat, nullptr,
                        obs::accuracy::ViolationPoint::MemInvalidation);
                invalidateTile(s, line_addr, /*coherence=*/true,
                               nullptr);
                rt +=
                    msg(s, home, CTRL_BYTES, now + lat + rt, nullptr,
                        obs::accuracy::ViolationPoint::MemInvalidation);
                max_rt = std::max(max_rt, rt);
            }
            // One mark for the whole overlapped batch: charging the
            // per-sharer messages individually would double-count the
            // round trips the max already hides.
            if (sb)
                sb->add(obs::SpanStage::Invalidation, now + lat, max_rt);
            lat += max_rt;
            entry.clearSharers();
            if (!upgrade) {
                // Sharers hold clean copies; memory is current.
                if (!ff) {
                    auto dbd = shards_[home].dram->accessEx(
                        now + lat, lineSize_ + CTRL_BYTES);
                    markDram(sb, dbd, now + lat);
                    lat += dbd.total;
                }
                fill_from_memory(data);
            }
        } else {
            if (!ff) {
                auto dbd = shards_[home].dram->accessEx(
                    now + lat, lineSize_ + CTRL_BYTES);
                markDram(sb, dbd, now + lat);
                lat += dbd.total;
            }
            fill_from_memory(data);
        }
        break;
      }

      case DirectoryState::Modified: {
        GRAPHITE_ASSERT(!upgrade);
        tile_id_t owner = entry.owner();
        GRAPHITE_ASSERT(owner != INVALID_TILE_ID);
        GRAPHITE_ASSERT(owner != tile);
        ++tm.stats.recalls;

        // Recall: home -> owner, owner -> home (with data). Both legs
        // coalesce into one Recall mark (add() merges the adjacent
        // same-stage slices).
        {
            cycle_t m =
                msg(home, owner, CTRL_BYTES, now + lat, nullptr,
                    obs::accuracy::ViolationPoint::MemRecall);
            if (sb)
                sb->add(obs::SpanStage::Recall, now + lat, m);
            lat += m;
        }
        TileMemory& otm = tiles_[owner];
        CacheLine* owner_line = otm.l2->find(line_addr);
        GRAPHITE_ASSERT(owner_line != nullptr);
        bool owner_dirty = owner_line->state == CacheState::Modified;
        if (for_write) {
            std::vector<std::uint8_t> owner_data;
            invalidateTile(owner, line_addr, /*coherence=*/true,
                           &owner_data);
            GRAPHITE_ASSERT(owner_data.size() == lineSize_);
            data = std::move(owner_data);
        } else {
            auto owner_data = otm.l2->downgrade(line_addr);
            GRAPHITE_ASSERT(owner_data.has_value());
            data = std::move(*owner_data);
        }
        {
            cycle_t m =
                msg(owner, home, lineSize_ + CTRL_BYTES, now + lat,
                    nullptr, obs::accuracy::ViolationPoint::MemRecall);
            if (sb)
                sb->add(obs::SpanStage::Recall, now + lat, m);
            lat += m;
        }
        if (!for_write && owner_dirty) {
            // M -> S: shared copies must agree with memory, so the home
            // controller writes the recalled data back before replying.
            // The requester pays the occupancy (this also closes the
            // queueing feedback loop: demand on a saturated controller
            // throttles the threads generating it).
            backing_.write(line_addr, data.data(), data.size());
            if (!ff) {
                auto dbd = shards_[home].dram->accessEx(
                    now + lat, lineSize_ + CTRL_BYTES);
                markDram(sb, dbd, now + lat);
                lat += dbd.total;
            }
        }
        // M -> M: dirty ownership migrates cache-to-cache; memory stays
        // stale (the functional copy lives in the new owner's L2).
        // E -> S/x: the owner's copy was clean, memory is current.

        entry.clearSharers();
        if (for_write) {
            entry.setOwner(INVALID_TILE_ID); // set below
        } else {
            entry.setState(DirectoryState::Shared);
            entry.setOwner(INVALID_TILE_ID);
            AddSharerResult r = entry.addSharer(owner);
            GRAPHITE_ASSERT(!r.evicted.has_value());
            if (sb)
                sb->add(obs::SpanStage::Directory, now + lat,
                        r.extraLatency);
            lat += r.extraLatency;
        }
        break;
      }
    }

    // Update the directory for the requester.
    if (for_write || grant_exclusive) {
        // The directory tracks E and M identically: one owner, whose
        // cache holds the authoritative copy (clean for E).
        entry.setState(DirectoryState::Modified);
        entry.setOwner(tile);
        entry.clearSharers();
    } else {
        entry.setState(DirectoryState::Shared);
        AddSharerResult r = entry.addSharer(tile);
        if (sb)
            sb->add(obs::SpanStage::Directory, now + lat,
                    r.extraLatency);
        lat += r.extraLatency;
        if (r.evicted.has_value()) {
            // Dir_iNB pointer eviction: invalidate the displaced sharer.
            tile_id_t victim = *r.evicted;
            GRAPHITE_ASSERT(victim != tile);
            ++tm.stats.invalidationsSent;
            cycle_t rt =
                msg(home, victim, CTRL_BYTES, now + lat, nullptr,
                    obs::accuracy::ViolationPoint::MemInvalidation);
            invalidateTile(victim, line_addr, /*coherence=*/true,
                           nullptr);
            rt +=
                msg(victim, home, CTRL_BYTES, now + lat + rt, nullptr,
                    obs::accuracy::ViolationPoint::MemInvalidation);
            if (sb)
                sb->add(obs::SpanStage::Invalidation, now + lat, rt);
            lat += rt;
        }
    }

    // Reply to the requester and install.
    if (upgrade) {
        NetBreakdown nbd;
        cycle_t m = msg(home, tile, CTRL_BYTES, now + lat,
                        sb ? &nbd : nullptr,
                        obs::accuracy::ViolationPoint::MemReply);
        if (sb)
            markNet(sb, nbd, now + lat, /*reply=*/true);
        lat += m;
        existing->state = CacheState::Modified;
    } else {
        NetBreakdown nbd;
        cycle_t m = msg(home, tile, lineSize_ + CTRL_BYTES, now + lat,
                        sb ? &nbd : nullptr,
                        obs::accuracy::ViolationPoint::MemReply);
        if (sb)
            markNet(sb, nbd, now + lat, /*reply=*/true);
        lat += m;
        GRAPHITE_ASSERT(data.size() == lineSize_);
        CacheState install = for_write ? CacheState::Modified
                             : grant_exclusive ? CacheState::Exclusive
                                               : CacheState::Shared;
        auto ev = tm.l2->insert(line_addr, install, std::move(data));
        if (!ff) {
            // Classification tracking pauses during fast-forward (the
            // documented warmup caveat: post-ROI cold/coherence split
            // is approximate for lines first touched while warming).
            tm.everCached.insert(line_addr);
            tm.lostLines.erase(line_addr);
        }
        if (ev)
            handleL2Eviction(tile, *ev, now + lat);
    }
    GRAPHITE_ASSERT(lat < (1ull << 39));
    return lat;
}

// ------------------------------------------------------------- access paths

void
MemorySystem::finishAccess(TileMemory& tm, const LineRequest& rq,
                           const AccessResult& res)
{
    ++tm.stats.totalAccesses;
    tm.stats.totalLatency += res.latency;
    addSerialized(tm.accesses);
    // Atomics stay out of the application access-latency distribution.
    if (rq.rmw == nullptr)
        tm.accessLatency.recordSerialized(res.latency);
}

CacheLine*
MemorySystem::lookupLocal(TileMemory& tm, const LineRequest& rq,
                          AccessResult& res)
{
    // The L1 is write-through, so only the L2 can satisfy a write; the
    // L1 lookup still counts in its stats.
    if (rq.l1) {
        res.latency += l1Latency_;
        rq.l1->access(rq.addr, /*is_write=*/false);
    }
    res.latency += l2Latency_;
    return tm.l2->access(rq.addr, rq.isWrite);
}

void
MemorySystem::commitLine(TileMemory& tm, LineRequest& rq,
                         CacheLine& l2line)
{
    const addr_t offset = rq.addr - l2line.lineAddr;
    std::uint8_t* bytes = l2line.data.data() + offset;
    if (!rq.isWrite) {
        std::memcpy(rq.buf, bytes, rq.size);
        fillL1(rq.l1, l2line);
        return;
    }
    GRAPHITE_ASSERT(l2line.state == CacheState::Modified);
    std::uint64_t new_val = 0;
    const void* src = rq.buf;
    if (rq.rmw != nullptr) {
        std::memcpy(&rq.oldValue, bytes, rq.size);
        new_val = (*rq.rmw)(rq.oldValue);
        src = &new_val;
    }
    bumpVersions(rq.addr, rq.size);
    std::memcpy(bytes, src, rq.size);
    // Write through into the L1d copy, if present. A plain write
    // allocates on an L1 miss; an atomic does not (rq.l1 is null), and
    // its write-through is the release fence the fuzz fault can skip.
    if (!tm.l1d)
        return;
    CacheLine* l1line = tm.l1d->find(rq.addr);
    if (l1line == nullptr)
        fillL1(rq.l1, l2line);
    else if (!(rq.rmw != nullptr && obs_.faults &&
               obs_.faults->shouldFire(check::FaultMode::SkipReleaseFence,
                                       l2line.lineAddr)))
        std::memcpy(l1line->data.data() + offset, src, rq.size);
}

CacheProbe
MemorySystem::tryCompleteLocal(TileMemory& tm, LineRequest& rq,
                               AccessResult& res)
{
    res = AccessResult{};

    // L1 probe. The L1 is write-through, so a write "hit" only means the
    // copy is present (never Modified); reads complete here, writes
    // always continue to the L2.
    if (rq.l1 && !rq.isWrite && rq.l1->find(rq.addr) != nullptr) {
        res.latency = l1Latency_;
        CacheLine* l1line = rq.l1->access(rq.addr, /*is_write=*/false);
        GRAPHITE_ASSERT(l1line != nullptr);
        std::memcpy(rq.buf,
                    l1line->data.data() + (rq.addr - lineAlign(rq.addr)),
                    rq.size);
        res.l1Hit = true;
        finishAccess(tm, rq, res);
        return CacheProbe::Hit;
    }

    // L2 permission probe — side-effect-free, so a negative answer
    // leaves no stats or LRU trace behind (the caller will come back
    // through the transaction path, which records the miss exactly
    // once).
    CacheProbe p = tm.l2->probe(rq.addr, rq.isWrite);
    if (p != CacheProbe::Hit)
        return p;
    CacheLine* l2line = lookupLocal(tm, rq, res);
    GRAPHITE_ASSERT(l2line != nullptr);
    res.l2Hit = true;
    commitLine(tm, rq, *l2line);
    finishAccess(tm, rq, res);
    return CacheProbe::Hit;
}

AccessResult
MemorySystem::accessLine(LineRequest& rq, cycle_t start_time)
{
    GRAPHITE_ASSERT(lineAlign(rq.addr) == lineAlign(rq.addr + rq.size - 1));

    if (fastForward())
        return accessLineFastForward(rq);

    TileMemory& tm = tiles_[rq.tile];
    addr_t line_addr = lineAlign(rq.addr);

    for (;;) {
        // Phase A — fast path + transaction plan under the tile lock
        // alone. Hits with sufficient permission never touch shared
        // state (the paper's partition-local case). An upgrade keeps
        // its line, so only a miss can have a victim.
        std::optional<addr_t> planned_victim;
        {
            auto tile_lock = lockCounted(tm.mutex);
            AccessResult res;
            CacheProbe p = tryCompleteLocal(tm, rq, res);
            if (p == CacheProbe::Hit)
                return res;
            if (p == CacheProbe::Miss)
                planned_victim = tm.l2->peekVictim(line_addr);
        }

        // Phase B — acquire shards (ascending), read the holder set,
        // then acquire every involved tile lock (ascending). No tile
        // lock is held while a shard lock is being acquired, and the
        // holder set is frozen while the home shard is held: any
        // holder-set mutation for this line runs a transaction through
        // the same home shard.
        tile_id_t home = homeTile(line_addr);
        std::vector<tile_id_t> shard_ids{home};
        if (planned_victim)
            shard_ids.push_back(homeTile(*planned_victim));
        sortUnique(shard_ids);

        std::vector<lockdep::UniqueLock> shard_locks;
        shard_locks.reserve(shard_ids.size());
        for (tile_id_t id : shard_ids)
            shard_locks.push_back(lockCounted(shards_[id].mutex));

        std::vector<tile_id_t> tile_ids{rq.tile};
        if (DirectoryEntry* e = shards_[home].directory->peek(line_addr);
            e != nullptr) {
            if (e->owner() != INVALID_TILE_ID)
                tile_ids.push_back(e->owner());
            for (tile_id_t s : e->sharers())
                tile_ids.push_back(s);
        }
        sortUnique(tile_ids);

        std::vector<lockdep::UniqueLock> tile_locks;
        tile_locks.reserve(tile_ids.size());
        for (tile_id_t id : tile_ids)
            tile_locks.push_back(lockCounted(tiles_[id].mutex));

        // Phase C — revalidate the plan now that the world is frozen.
        // A concurrent access by another thread on the same tile may
        // have changed our local state; other tiles can only have
        // *lost* copies (which never adds lock requirements).
        AccessResult res;
        CacheProbe p = tryCompleteLocal(tm, rq, res);
        if (p == CacheProbe::Hit)
            return res; // raced to sufficient permission
        if (p == CacheProbe::Miss) {
            auto victim_now = tm.l2->peekVictim(line_addr);
            if (victim_now &&
                !std::binary_search(shard_ids.begin(), shard_ids.end(),
                                    homeTile(*victim_now)))
                continue; // victim changed shard: replan
        }

        // Commit: run the request through the full transaction with the
        // serial engine's exact stats/latency sequence.
        const bool atomic = rq.rmw != nullptr;
        std::optional<obs::SpanBuilder> span;
        if (obs_.spans)
            span.emplace(*obs_.spans,
                         atomic       ? obs::SpanKind::Atomic
                         : rq.isWrite ? obs::SpanKind::WriteMiss
                                      : obs::SpanKind::ReadMiss,
                         rq.tile, home, start_time);
        CacheLine* l2line = lookupLocal(tm, rq, res);
        GRAPHITE_ASSERT(l2line == nullptr);
        if (span)
            span->add(obs::SpanStage::LocalCheck, start_time,
                      res.latency);
        addSerialized(tm.l2Misses);
        MissClass mc;
        res.latency += fetchLineLocked(rq.tile, line_addr, rq.isWrite,
                                       rq.addr, rq.size,
                                       start_time + res.latency, mc);
        res.missClass = mc;
        recordMiss(rq.tile, tm, mc, start_time + res.latency);
        if (span) {
            if (mc == MissClass::Upgrade && !atomic)
                span->setKind(obs::SpanKind::Upgrade);
            span->finish(start_time + res.latency);
        }
        l2line = tm.l2->find(line_addr);
        GRAPHITE_ASSERT(l2line != nullptr);
        commitLine(tm, rq, *l2line);
        finishAccess(tm, rq, res);
        return res;
    }
}

AccessResult
MemorySystem::access(tile_id_t tile, MemAccessType type, addr_t addr,
                     void* buf, size_t size, cycle_t start_time)
{
    GRAPHITE_ASSERT(size > 0);
    GRAPHITE_ASSERT(tile >= 0 && tile < topo_.totalTiles());
    // Race detection taps the single application-access funnel. Kernel
    // paths (readCoherent/writeCoherent) and instruction fetches are
    // exempt; sync-library internals are masked by InternalScope.
    if (obs_.race && type != MemAccessType::Fetch &&
        !race::Detector::suppressed()) {
        obs_.race->onAccess(tile, addr, size, type == MemAccessType::Write,
                            start_time);
    }
    LineRequest rq;
    rq.tile = tile;
    rq.isWrite = type == MemAccessType::Write;
    rq.l1 = type == MemAccessType::Fetch ? tiles_[tile].l1i.get()
                                         : tiles_[tile].l1d.get();
    AccessResult total;
    total.l1Hit = true;
    total.l2Hit = true;
    auto* bytes = static_cast<std::uint8_t*>(buf);
    while (size > 0) {
        addr_t line_end = lineAlign(addr) + lineSize_;
        size_t chunk =
            std::min<std::uint64_t>(size, line_end - addr);
        rq.addr = addr;
        rq.size = chunk;
        rq.buf = bytes;
        AccessResult r = accessLine(rq, start_time + total.latency);
        total.latency += r.latency;
        total.l1Hit = total.l1Hit && r.l1Hit;
        total.l2Hit = total.l2Hit && r.l2Hit;
        if (total.missClass == MissClass::None)
            total.missClass = r.missClass;
        bytes += chunk;
        addr += chunk;
        size -= chunk;
    }
    return total;
}

MemorySystem::AtomicResult
MemorySystem::atomicRmw(tile_id_t tile, addr_t addr, size_t size,
                        const std::function<std::uint64_t(std::uint64_t)>&
                            op,
                        cycle_t start_time)
{
    GRAPHITE_ASSERT(size == 4 || size == 8);
    GRAPHITE_ASSERT(tile >= 0 && tile < topo_.totalTiles());
    // An atomic needs write permission up front and bypasses the L1
    // (as on most tiled targets); the whole RMW is one line request.
    LineRequest rq{.tile = tile,
                   .addr = addr,
                   .size = size,
                   .isWrite = true,
                   .rmw = &op};
    AccessResult res = accessLine(rq, start_time);
    return AtomicResult{rq.oldValue, res.latency};
}

AccessResult
MemorySystem::accessLineFastForward(LineRequest& rq)
{
    addr_t line_addr = lineAlign(rq.addr);

    // The backing store is the single memory image during warmup. The
    // first fast-forward touch of a line demotes any cached copies
    // (mixed-mode safety: a detailed-path access that straddled the
    // mode flip may have installed one); after that the steady state
    // is a directory peek plus a plain memory copy under the home
    // shard lock — no cache, network or DRAM modeling at all. The
    // shard lock also makes an RMW atomic: every fast-forward access
    // to the line serializes on it.
    tile_id_t home = homeTile(line_addr);
    auto shard_lock = lockCounted(shards_[home].mutex);
    if (DirectoryEntry* entry = shards_[home].directory->peek(line_addr);
        entry != nullptr && entry->state() != DirectoryState::Uncached)
        demoteLineLocked(*entry, line_addr);
    if (rq.rmw != nullptr) {
        backing_.read(rq.addr, &rq.oldValue, rq.size);
        std::uint64_t new_val = (*rq.rmw)(rq.oldValue);
        backing_.write(rq.addr, &new_val, rq.size);
    } else if (rq.isWrite) {
        backing_.write(rq.addr, rq.buf, rq.size);
    } else {
        backing_.read(rq.addr, rq.buf, rq.size);
    }

    AccessResult res; // zero latency, counts as a (cold) miss
    TileMemory& tm = tiles_[rq.tile];
    auto tile_lock = lockCounted(tm.mutex);
    finishAccess(tm, rq, res);
    return res;
}

// ------------------------------------------------- untimed coherent access

void
MemorySystem::demoteLineLocked(DirectoryEntry& entry, addr_t line_addr)
{
    // Caller holds the line's home shard. Invalidate every cached copy
    // (merging a Modified owner's data) so the backing store becomes
    // the sole authority for the line.
    std::vector<tile_id_t> holder_ids;
    if (entry.state() == DirectoryState::Modified)
        holder_ids.push_back(entry.owner());
    else
        for (tile_id_t s : entry.sharers())
            holder_ids.push_back(s);
    sortUnique(holder_ids);
    std::vector<lockdep::UniqueLock> tile_locks;
    tile_locks.reserve(holder_ids.size());
    for (tile_id_t id : holder_ids)
        tile_locks.push_back(lockCounted(tiles_[id].mutex));

    if (entry.state() == DirectoryState::Modified) {
        std::vector<std::uint8_t> data;
        invalidateTile(entry.owner(), line_addr, /*coherence=*/false,
                       &data);
        backing_.write(line_addr, data.data(), data.size());
    } else {
        for (tile_id_t s : holder_ids)
            invalidateTile(s, line_addr, /*coherence=*/false, nullptr);
    }
    entry.setState(DirectoryState::Uncached);
    entry.setOwner(INVALID_TILE_ID);
    entry.clearSharers();
}

void
MemorySystem::readCoherent(addr_t addr, void* buf, size_t size)
{
    auto* out = static_cast<std::uint8_t*>(buf);
    while (size > 0) {
        addr_t line_addr = lineAlign(addr);
        size_t chunk = std::min<std::uint64_t>(
            size, line_addr + lineSize_ - addr);
        // If some cache owns the line Modified, its L2 has the newest
        // data (L1 is write-through). Holding the home shard freezes
        // the owner; the owner's tile lock freezes the data.
        tile_id_t home = homeTile(line_addr);
        auto shard_lock = lockCounted(shards_[home].mutex);
        DirectoryEntry* entry =
            shards_[home].directory->peek(line_addr);
        if (entry != nullptr &&
            entry->state() == DirectoryState::Modified) {
            tile_id_t owner = entry->owner();
            auto tile_lock = lockCounted(tiles_[owner].mutex);
            CacheLine* line = tiles_[owner].l2->find(line_addr);
            GRAPHITE_ASSERT(line != nullptr);
            std::memcpy(out, line->data.data() + (addr - line_addr),
                        chunk);
        } else {
            backing_.read(addr, out, chunk);
        }
        out += chunk;
        addr += chunk;
        size -= chunk;
    }
}

void
MemorySystem::writeCoherent(addr_t addr, const void* buf, size_t size)
{
    const auto* in = static_cast<const std::uint8_t*>(buf);
    while (size > 0) {
        addr_t line_addr = lineAlign(addr);
        size_t chunk = std::min<std::uint64_t>(
            size, line_addr + lineSize_ - addr);
        // Invalidate every cached copy, then update memory. This is a
        // kernel-initiated write (DMA-like); charge no target time.
        tile_id_t home = homeTile(line_addr);
        auto shard_lock = lockCounted(shards_[home].mutex);
        DirectoryEntry* entry =
            shards_[home].directory->peek(line_addr);
        if (entry != nullptr &&
            entry->state() != DirectoryState::Uncached)
            demoteLineLocked(*entry, line_addr);
        backing_.write(addr, in, chunk);
        bumpVersions(addr, chunk);
        in += chunk;
        addr += chunk;
        size -= chunk;
    }
}

// -------------------------------------------------------------- inspection

Cache*
MemorySystem::l1i(tile_id_t tile)
{
    return tiles_[tile].l1i.get();
}

Cache*
MemorySystem::l1d(tile_id_t tile)
{
    return tiles_[tile].l1d.get();
}

Cache&
MemorySystem::l2(tile_id_t tile)
{
    return *tiles_[tile].l2;
}

Directory&
MemorySystem::directory(tile_id_t tile)
{
    return *shards_[tile].directory;
}

DramController&
MemorySystem::dram(tile_id_t tile)
{
    return *shards_[tile].dram;
}

const TileMemoryStats&
MemorySystem::stats(tile_id_t tile) const
{
    return tiles_[tile].stats;
}

void
MemorySystem::registerStats(StatsRegistry& reg) const
{
    std::vector<const HistogramStat*> latency;
    for (const TileMemory& tm : tiles_)
        latency.push_back(&tm.accessLatency);
    reg.registerHistogram("mem.access_latency", std::move(latency));

    auto sum_tiles = [&](const char* name,
                         atomic_stat_t TileMemory::*field) {
        reg.registerGauge(name, [this, field] {
            stat_t total = 0;
            for (const TileMemory& tm : tiles_)
                total += (tm.*field).load(std::memory_order_relaxed);
            return total;
        });
    };
    sum_tiles("mem.accesses_total", &TileMemory::accesses);
    sum_tiles("mem.l2_misses_total", &TileMemory::l2Misses);
    sum_tiles("mem.writebacks_total", &TileMemory::writebacks);

    auto sum_locks = [&](const std::string& name, const auto* owners,
                         atomic_stat_t CountedMutex::*field) {
        reg.registerGauge(name, [owners, field] {
            stat_t total = 0;
            for (const auto& owner : *owners)
                total +=
                    (owner.mutex.*field).load(std::memory_order_relaxed);
            return total;
        });
    };
    for (const auto& [kind, field] :
         {std::pair{"acquisitions", &CountedMutex::acquisitions},
          std::pair{"contended", &CountedMutex::contended},
          std::pair{"wait_ns", &CountedMutex::waitNs}}) {
        sum_locks(strfmt("mem.tile_lock.{}", kind), &tiles_, field);
        sum_locks(strfmt("mem.shard_lock.{}", kind), &shards_, field);
    }
}

std::string
MemorySystem::validateCoherence()
{
    // Quiesce: take every shard, then every tile, in ascending order —
    // the same global order transactions use, so this composes with
    // concurrent traffic.
    std::vector<lockdep::UniqueLock> shard_locks;
    shard_locks.reserve(shards_.size());
    for (Shard& sh : shards_)
        shard_locks.push_back(lockCounted(sh.mutex));
    std::vector<lockdep::UniqueLock> tile_locks;
    tile_locks.reserve(tiles_.size());
    for (TileMemory& tm : tiles_)
        tile_locks.push_back(lockCounted(tm.mutex));

    // Gather, for every line cached anywhere, which L2s hold it and how.
    struct Holders
    {
        std::vector<tile_id_t> shared;
        std::vector<tile_id_t> modified;  ///< M or E (owned)
        std::vector<tile_id_t> exclusive; ///< E only (clean-owned)
    };
    std::unordered_map<addr_t, Holders> holders;
    for (tile_id_t t = 0; t < topo_.totalTiles(); ++t) {
        for (const CacheLine* line : tiles_[t].l2->validLines()) {
            if (line->state == CacheState::Modified) {
                holders[line->lineAddr].modified.push_back(t);
            } else if (line->state == CacheState::Exclusive) {
                holders[line->lineAddr].modified.push_back(t);
                holders[line->lineAddr].exclusive.push_back(t);
            } else {
                holders[line->lineAddr].shared.push_back(t);
            }
        }
        // Inclusion + data agreement for L1 copies.
        for (Cache* l1 : {tiles_[t].l1d.get(), tiles_[t].l1i.get()}) {
            if (!l1)
                continue;
            for (const CacheLine* line : l1->validLines()) {
                const CacheLine* l2line =
                    tiles_[t].l2->find(line->lineAddr);
                if (l2line == nullptr)
                    return strfmt("inclusion violated: tile {} {} holds "
                                  "line {} absent from L2",
                                  t, l1->name(), line->lineAddr);
                if (l2line->data != line->data)
                    return strfmt("L1/L2 data mismatch on tile {} line "
                                  "{}",
                                  t, line->lineAddr);
            }
        }
    }

    for (auto& [line_addr, h] : holders) {
        tile_id_t home = homeTile(line_addr);
        DirectoryEntry* entry = shards_[home].directory->peek(line_addr);
        if (entry == nullptr)
            return strfmt("line {} cached but has no directory entry",
                          line_addr);
        if (h.modified.size() > 1)
            return strfmt("line {} Modified in {} caches", line_addr,
                          h.modified.size());
        if (!h.modified.empty()) {
            if (!h.shared.empty())
                return strfmt("line {} both Modified and Shared",
                              line_addr);
            if (entry->state() != DirectoryState::Modified ||
                entry->owner() != h.modified.front())
                return strfmt("directory/owner mismatch for line {}",
                              line_addr);
            if (!h.exclusive.empty()) {
                // Exclusive copies are clean: must match memory.
                std::vector<std::uint8_t> mem(lineSize_);
                backing_.read(line_addr, mem.data(), lineSize_);
                const CacheLine* line =
                    tiles_[h.exclusive.front()].l2->find(line_addr);
                if (line->data != mem)
                    return strfmt("exclusive line {} on tile {} "
                                  "differs from memory",
                                  line_addr, h.exclusive.front());
            }
        } else {
            if (entry->state() != DirectoryState::Shared)
                return strfmt("line {} cached Shared but directory says "
                              "{}",
                              line_addr, static_cast<int>(entry->state()));
            for (tile_id_t t : h.shared) {
                if (!entry->isSharer(t))
                    return strfmt("tile {} holds line {} but is not a "
                                  "directory sharer",
                                  t, line_addr);
            }
            // Shared copies must agree with memory (clean).
            std::vector<std::uint8_t> mem(lineSize_);
            backing_.read(line_addr, mem.data(), lineSize_);
            for (tile_id_t t : h.shared) {
                const CacheLine* line = tiles_[t].l2->find(line_addr);
                if (line->data != mem)
                    return strfmt("shared line {} on tile {} differs "
                                  "from memory",
                                  line_addr, t);
            }
        }
    }
    return "";
}

// ----------------------------------------------------------- serialization

void
MemorySystem::saveState(snapshot::SnapshotWriter& w)
{
    w.u64(static_cast<std::uint64_t>(tiles_.size()));
    for (TileMemory& tm : tiles_) {
        lockdep::Guard lock(tm.mutex);
        w.b(tm.l1i != nullptr);
        if (tm.l1i)
            tm.l1i->saveState(w);
        w.b(tm.l1d != nullptr);
        if (tm.l1d)
            tm.l1d->saveState(w);
        tm.l2->saveState(w);

        const TileMemoryStats& s = tm.stats;
        w.u64(s.totalAccesses);
        w.u64(s.totalLatency);
        w.u64(s.l2ColdMisses);
        w.u64(s.l2CapacityMisses);
        w.u64(s.l2TrueSharingMisses);
        w.u64(s.l2FalseSharingMisses);
        w.u64(s.l2UpgradeMisses);
        w.u64(s.invalidationsSent);
        w.u64(s.recalls);
        w.u64(s.writebacks);

        std::vector<addr_t> ever(tm.everCached.begin(),
                                 tm.everCached.end());
        std::sort(ever.begin(), ever.end());
        w.u64(static_cast<std::uint64_t>(ever.size()));
        for (addr_t a : ever)
            w.u64(a);

        std::map<addr_t, const LostLine*> lost;
        for (const auto& [a, ll] : tm.lostLines)
            lost.emplace(a, &ll);
        w.u64(static_cast<std::uint64_t>(lost.size()));
        for (const auto& [a, ll] : lost) {
            w.u64(a);
            w.u8(static_cast<std::uint8_t>(ll->reason));
            w.u64(static_cast<std::uint64_t>(ll->versions.size()));
            for (std::uint32_t v : ll->versions)
                w.u32(v);
        }
    }

    for (Shard& sh : shards_) {
        lockdep::Guard lock(sh.mutex);
        sh.directory->saveState(w);
        sh.dram->saveState(w);
        lockdep::Guard vl(sh.versionMutex);
        std::map<addr_t, const std::vector<std::uint32_t>*> vers;
        for (const auto& [a, vv] : sh.wordVersions)
            vers.emplace(a, &vv);
        w.u64(static_cast<std::uint64_t>(vers.size()));
        for (const auto& [a, vv] : vers) {
            w.u64(a);
            w.u64(static_cast<std::uint64_t>(vv->size()));
            for (std::uint32_t v : *vv)
                w.u32(v);
        }
    }

    // The format keeps one latency histogram and one total of each
    // kind: write the tiles' parts merged and summed.
    HistogramStat latency;
    stat_t accesses = 0, l2_misses = 0, writebacks = 0;
    for (const TileMemory& tm : tiles_) {
        latency.merge(tm.accessLatency);
        accesses += tm.accesses.load(std::memory_order_relaxed);
        l2_misses += tm.l2Misses.load(std::memory_order_relaxed);
        writebacks += tm.writebacks.load(std::memory_order_relaxed);
    }
    latency.saveState(w);
    backing_.saveState(w);
    manager_->saveState(w);

    w.u64(accesses);
    w.u64(l2_misses);
    w.u64(writebacks);
}

void
MemorySystem::loadState(snapshot::SnapshotReader& r)
{
    std::uint64_t tiles = r.u64();
    if (tiles != tiles_.size())
        throw snapshot::SnapshotError(
            strfmt("snapshot: tile count mismatch (snapshot {}, "
                   "configured {})",
                   tiles, tiles_.size()));
    for (TileMemory& tm : tiles_) {
        lockdep::Guard lock(tm.mutex);
        auto load_l1 = [&](std::unique_ptr<Cache>& l1,
                           const char* which) {
            bool present = r.b();
            if (present != (l1 != nullptr))
                throw snapshot::SnapshotError(
                    strfmt("snapshot: {} cache presence mismatch "
                           "(snapshot {}, configured {})",
                           which, present ? "enabled" : "disabled",
                           l1 ? "enabled" : "disabled"));
            if (l1)
                l1->loadState(r);
        };
        load_l1(tm.l1i, "L1I");
        load_l1(tm.l1d, "L1D");
        tm.l2->loadState(r);

        TileMemoryStats& s = tm.stats;
        s.totalAccesses = r.u64();
        s.totalLatency = r.u64();
        s.l2ColdMisses = r.u64();
        s.l2CapacityMisses = r.u64();
        s.l2TrueSharingMisses = r.u64();
        s.l2FalseSharingMisses = r.u64();
        s.l2UpgradeMisses = r.u64();
        s.invalidationsSent = r.u64();
        s.recalls = r.u64();
        s.writebacks = r.u64();

        tm.everCached.clear();
        std::uint64_t ever = r.u64();
        for (std::uint64_t i = 0; i < ever; ++i)
            tm.everCached.insert(r.u64());

        tm.lostLines.clear();
        std::uint64_t lost = r.u64();
        for (std::uint64_t i = 0; i < lost; ++i) {
            addr_t a = r.u64();
            LostLine& ll = tm.lostLines[a];
            ll.reason = static_cast<EvictReason>(r.u8());
            std::uint64_t n = r.u64();
            ll.versions.resize(n);
            for (std::uint32_t& v : ll.versions)
                v = r.u32();
        }
    }

    for (Shard& sh : shards_) {
        lockdep::Guard lock(sh.mutex);
        sh.directory->loadState(r);
        sh.dram->loadState(r);
        lockdep::Guard vl(sh.versionMutex);
        sh.wordVersions.clear();
        std::uint64_t entries = r.u64();
        for (std::uint64_t i = 0; i < entries; ++i) {
            addr_t a = r.u64();
            std::uint64_t n = r.u64();
            auto& vv = sh.wordVersions[a];
            vv.resize(n);
            for (std::uint32_t& v : vv)
                v = r.u32();
        }
    }

    // The merged histogram and the totals land on tile 0 and the other
    // parts restart empty, so every sum reads what was saved.
    for (TileMemory& tm : tiles_) {
        tm.accessLatency.reset();
        tm.accesses.store(0, std::memory_order_relaxed);
        tm.l2Misses.store(0, std::memory_order_relaxed);
        tm.writebacks.store(0, std::memory_order_relaxed);
    }
    TileMemory& first = tiles_.front();
    first.accessLatency.loadState(r);
    backing_.loadState(r);
    manager_->loadState(r);

    first.accesses.store(r.u64(), std::memory_order_relaxed);
    first.l2Misses.store(r.u64(), std::memory_order_relaxed);
    first.writebacks.store(r.u64(), std::memory_order_relaxed);
}

} // namespace graphite
