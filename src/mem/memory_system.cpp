#include "common/lockdep.h"
#include "mem/memory_system.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
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
    if (!cfg.getBool(key + "/enabled"))
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

// The protocol tables, indexed [DirectoryState][CoherenceRequest]. Each
// rule reads: invalidate sharers, recall owner, fetch from memory, grant.
// The empty rules cannot occur: only a Shared copy is upgraded, and its
// home cannot be Uncached or Modified.
constexpr CoherenceProtocol MSI = {{
    // Uncached: Read, Write, Upgrade
    {{{false, false, true, CacheState::Shared},
      {false, false, true, CacheState::Modified},
      {}}},
    // Shared: the copies are clean, so memory is current
    {{{false, false, true, CacheState::Shared},
      {true, false, true, CacheState::Modified},
      {true, false, false, CacheState::Modified}}},
    // Modified
    {{{false, true, false, CacheState::Shared},
      {false, true, false, CacheState::Modified},
      {}}},
}};

// MESI differs in one cell: a read that finds the line uncached makes
// the reader its sole, clean owner, which then writes without a
// transaction.
constexpr CoherenceProtocol MESI = [] {
    CoherenceProtocol p = MSI;
    p[static_cast<int>(DirectoryState::Uncached)]
     [static_cast<int>(CoherenceRequest::Read)]
         .grant = CacheState::Exclusive;
    return p;
}();

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
    }
    lineSize_ = cfg.getInt("perf_model/l2_cache/line_size");
    if (lineSize_ < WORD_BYTES || lineSize_ > MAX_LINE_BYTES)
        fatal("perf_model/l2_cache/line_size {} is outside {}..{} bytes "
              "(the miss classifier marks each line's {}-byte words in "
              "a 64-bit mask)",
              lineSize_, WORD_BYTES, MAX_LINE_BYTES, WORD_BYTES);
    l1Latency_ = cfg.getInt("perf_model/l1_dcache/access_latency");
    l2Latency_ = cfg.getInt("perf_model/l2_cache/access_latency");
    dirLatency_ = cfg.getInt("caching_protocol/directory_access_latency");
    std::string protocol = cfg.getString("caching_protocol/type");
    if (protocol != "dir_msi" && protocol != "dir_mesi")
        fatal("unknown caching protocol '{}'", protocol);
    protocol_ = protocol == "dir_mesi" ? &MESI : &MSI;

    DirectoryType dtype = parseDirectoryType(
        cfg.getString("caching_protocol/directory_type"));
    int max_sharers =
        static_cast<int>(cfg.getInt("caching_protocol/max_sharers"));
    cycle_t trap_penalty = cfg.getInt(
        "caching_protocol/limitless_software_trap_penalty");

    double freq = cfg.getDouble("general/clock_frequency_ghz");
    double dram_latency_ns = cfg.getDouble("perf_model/dram/latency_ns");
    auto dram_latency = static_cast<cycle_t>(dram_latency_ns * freq);
    double total_bw_gbps =
        cfg.getDouble("perf_model/dram/total_bandwidth_gbps");
    // GB/s divided by GHz gives bytes per cycle; the total off-chip
    // bandwidth is split evenly across per-tile controllers (§4.4).
    double bytes_per_cycle =
        total_bw_gbps / freq / static_cast<double>(topo.totalTiles());
    bool dram_queue = cfg.getBool("perf_model/dram/queue_model_enabled");

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
        sh.directory =
            std::make_unique<Directory>(dtype, max_sharers, trap_penalty);
        sh.dram = std::make_unique<DramController>(
            dram_latency, bytes_per_cycle,
            dram_queue ? &fabric.progress() : nullptr,
            cfg.getInt("network/queue_outlier_window"),
            cfg.getInt("network/queue_max_backlog"));
    }

    manager_ = std::make_unique<MemoryManager>(
        topo.totalTiles(), cfg.getInt("stack/stack_size_per_thread"));
}

MemorySystem::~MemorySystem() = default;

tile_id_t
MemorySystem::homeTile(addr_t addr) const
{
    return static_cast<tile_id_t>((addr / lineSize_) %
                                  static_cast<addr_t>(topo_.totalTiles()));
}

cycle_t
MemorySystem::leg(obs::accuracy::ViolationPoint point, tile_id_t src,
                  tile_id_t dst, size_t payload_bytes, cycle_t send_time,
                  obs::SpanBuilder* sb)
{
    using obs::SpanStage;
    using obs::accuracy::ViolationPoint;
    // Fast-forward skips the whole model call: the network model's
    // routed totals and the fabric's locality counters move together
    // inside it, so skipping both keeps the conservation invariants.
    if (fastForward())
        return 0;
    NetBreakdown b =
        fabric_.model(PacketType::Memory, src, dst,
                      payload_bytes + NetPacket::HEADER_BYTES, send_time);
    // Every coherence leg funnels through here, so this one hook gives
    // the accuracy observatory transaction-completion coverage: the
    // modeled arrival time is compared against the destination tile's
    // local clock (pure observation, never feeds back into timing).
    if (obs_.accuracy)
        obs_.accuracy->onDelivery(point, src, dst, send_time + b.total);
    if (sb == nullptr || point == ViolationPoint::MemInvalidation)
        return b.total;
    if (point == ViolationPoint::MemRecall) {
        // Both legs of a recall coalesce into one mark (add() merges
        // adjacent same-stage slices).
        sb->add(SpanStage::Recall, send_time, b.total);
        return b.total;
    }
    // Serialization, queueing, then hops: the three sum to the latency,
    // so the span's exact-accounting invariant holds.
    bool reply = point == ViolationPoint::MemReply;
    sb->add(reply ? SpanStage::ReplySer : SpanStage::ReqSer, send_time,
            b.serialization);
    send_time += b.serialization;
    sb->add(reply ? SpanStage::ReplyQueue : SpanStage::ReqQueue,
            send_time, b.queue);
    send_time += b.queue;
    sb->add(reply ? SpanStage::ReplyHop : SpanStage::ReqHop, send_time,
            b.hop);
    return b.total;
}

cycle_t
MemorySystem::dramAccess(tile_id_t home, cycle_t at, obs::SpanBuilder* sb,
                         cycle_t mark_at)
{
    if (fastForward())
        return 0;
    DramController::Breakdown bd =
        shards_[home].dram->access(at, lineSize_ + CTRL_BYTES);
    if (sb != nullptr) {
        sb->add(obs::SpanStage::DramQueue, mark_at, bd.queue);
        sb->add(obs::SpanStage::DramService, mark_at + bd.queue,
                bd.service);
    }
    return bd.total;
}

cycle_t
MemorySystem::invalidateSharers(tile_id_t requester, addr_t line_addr,
                                const std::vector<tile_id_t>& sharers,
                                bool droppable, cycle_t at,
                                obs::SpanBuilder* sb)
{
    using obs::accuracy::ViolationPoint;
    tile_id_t home = homeTile(line_addr);
    cycle_t max_rt = 0;
    for (tile_id_t s : sharers) {
        if (s == requester)
            continue;
        if (droppable && obs_.faults &&
            obs_.faults->shouldFire(check::FaultMode::DropInvalidation,
                                    line_addr))
            continue; // injected fault: sharer keeps stale copy
        addSerialized(tiles_[requester].stats.invalidationsSent);
        cycle_t rt = leg(ViolationPoint::MemInvalidation, home, s,
                         CTRL_BYTES, at, nullptr);
        invalidateTile(s, line_addr, /*coherence=*/true, nullptr);
        rt += leg(ViolationPoint::MemInvalidation, s, home, CTRL_BYTES,
                  at + rt, nullptr);
        max_rt = std::max(max_rt, rt);
    }
    // One mark for the whole overlapped batch: charging the per-sharer
    // messages individually would double-count the round trips the max
    // already hides.
    if (sb != nullptr)
        sb->add(obs::SpanStage::Invalidation, at, max_rt);
    return max_rt;
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

std::uint64_t
MemorySystem::wordMask(addr_t addr, size_t size) const
{
    addr_t line = lineAlign(addr);
    std::uint64_t first = (addr - line) / WORD_BYTES;
    std::uint64_t words = (addr + size - 1 - line) / WORD_BYTES - first + 1;
    return (words == 64 ? ~0ULL : (1ULL << words) - 1) << first;
}

void
MemorySystem::foldWrites(addr_t line_addr, std::uint64_t words)
{
    if (words == 0)
        return;
    auto& versions = shards_[homeTile(line_addr)].wordVersions[line_addr];
    if (versions.empty())
        versions.resize(lineSize_ / WORD_BYTES, 0);
    for (; words != 0; words &= words - 1)
        ++versions[std::countr_zero(words)];
}

void
MemorySystem::snapshotLoss(tile_id_t tile, addr_t line_addr,
                           EvictReason reason)
{
    if (fastForward())
        return;
    LostLine& lost = tiles_[tile].lostLines[line_addr];
    lost.reason = reason;
    Shard& sh = shards_[homeTile(line_addr)];
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
    TileMemory& tm = tiles_[tile];
    if (!tm.everCached.count(line_addr))
        return MissClass::Cold;
    auto it = tm.lostLines.find(line_addr);
    if (it == tm.lostLines.end() ||
        it->second.reason == EvictReason::Replacement)
        return MissClass::Capacity;

    // Lost to coherence: true sharing iff any word this access touches
    // was written since we lost the line — by a copy that has since
    // folded its mask, or by the current owner, whose mask is pending.
    const LostLine& lost = it->second;
    Shard& sh = shards_[homeTile(line_addr)];
    std::uint64_t pending = 0;
    if (const DirectoryEntry* e = sh.directory->peek(line_addr);
        e != nullptr && e->state() == DirectoryState::Modified) {
        const CacheLine* owned = tiles_[e->owner()].l2->find(line_addr);
        GRAPHITE_ASSERT(owned != nullptr);
        pending = owned->writtenWords;
    }
    auto vit = sh.wordVersions.find(line_addr);
    std::uint64_t words = wordMask(addr, size);
    for (; words != 0; words &= words - 1) {
        int w = std::countr_zero(words);
        std::uint32_t now =
            (vit != sh.wordVersions.end() ? vit->second[w] : 0) +
            ((pending >> w) & 1);
        std::uint32_t then = lost.versions.empty() ? 0 : lost.versions[w];
        if (now != then)
            return MissClass::TrueSharing;
    }
    return MissClass::FalseSharing;
}

void
MemorySystem::recordMiss(tile_id_t tile, TileMemory& tm, MissClass mc,
                         cycle_t time)
{
    switch (mc) {
      case MissClass::Cold: addSerialized(tm.stats.l2ColdMisses); break;
      case MissClass::Capacity:
        addSerialized(tm.stats.l2CapacityMisses);
        break;
      case MissClass::TrueSharing:
        addSerialized(tm.stats.l2TrueSharingMisses);
        break;
      case MissClass::FalseSharing:
        addSerialized(tm.stats.l2FalseSharingMisses);
        break;
      case MissClass::Upgrade:
        addSerialized(tm.stats.l2UpgradeMisses);
        break;
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
    const CacheLine* line =
        data_out != nullptr ? tm.l2->find(line_addr) : nullptr;
    if (line != nullptr)
        data_out->assign(line->data.get(), line->data.get() + lineSize_);
    auto ev = tm.l2->invalidate(line_addr);
    if (ev) {
        foldWrites(line_addr, ev->writtenWords);
        if (coherence)
            snapshotLoss(holder, line_addr, EvictReason::Invalidation);
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

    foldWrites(ev.lineAddr, ev.writtenWords);
    snapshotLoss(tile, ev.lineAddr, EvictReason::Replacement);

    tile_id_t home = homeTile(ev.lineAddr);
    Directory& dir = *shards_[home].directory;
    DirectoryEntry& entry = dir.entry(ev.lineAddr);
    // Victim handling runs inside the miss that displaced the line, so
    // its span nests under the miss span (same trace ID) — the
    // off-critical-path cost stays out of the parent's accounting.
    std::optional<obs::SpanBuilder> span;
    if (obs_.spans)
        span.emplace(*obs_.spans,
                     ev.dirty ? obs::SpanKind::Writeback
                              : obs::SpanKind::Evict,
                     tile, home, now);
    obs::SpanBuilder* sb = span ? &*span : nullptr;
    if (ev.dirty) {
        addSerialized(tm.stats.writebacks);
        obs::telemetry::FlightRecorder::record(
            obs::telemetry::FrEvent::Writeback, tile, now, ev.lineAddr,
            static_cast<std::uint64_t>(home));
    }
    // A dirty writeback carries the data to home; a clean eviction
    // notice keeps the directory precise. Both are off the requester's
    // critical path, so the latency is modeled (traffic and queue
    // occupancy) but not accumulated into the access.
    cycle_t end =
        now + leg(obs::accuracy::ViolationPoint::MemWriteback, tile, home,
                  (ev.dirty ? lineSize_ : 0) + CTRL_BYTES, now, sb);
    if (ev.dirty) {
        // The data enters the DRAM queue at the send time; the span
        // draws the DRAM stages after the message lands.
        end += dramAccess(home, now, sb, end);
        if (!(obs_.faults &&
              obs_.faults->shouldFire(check::FaultMode::LostWriteback,
                                      ev.lineAddr)))
            backing_.write(ev.lineAddr, ev.data.data(), ev.data.size());
        GRAPHITE_ASSERT(entry.state() == DirectoryState::Modified &&
                        entry.owner() == tile);
        entry.reset();
    } else if (entry.state() == DirectoryState::Modified &&
               entry.owner() == tile) {
        // Exclusive (clean-owned) line: ownership simply lapses;
        // memory is already current.
        entry.reset();
    } else {
        dir.removeSharer(entry, tile);
        if (entry.state() == DirectoryState::Shared &&
            entry.numSharers() == 0)
            entry.setState(DirectoryState::Uncached);
    }
    if (span)
        span->finish(end);
}

void
MemorySystem::fillL1(Cache* l1, const CacheLine& l2line)
{
    if (!l1)
        return;
    // L1 is write-through: copies are always clean Shared; victims drop.
    l1->insert(l2line.lineAddr, CacheState::Shared,
               {l2line.data.get(), lineSize_});
}

// ----------------------------------------------- the coherence transaction

cycle_t
MemorySystem::fetchLineLocked(tile_id_t tile, addr_t line_addr,
                              bool for_write, addr_t addr, size_t size,
                              cycle_t now, MissClass& miss_class)
{
    using obs::accuracy::ViolationPoint;
    TileMemory& tm = tiles_[tile];
    tile_id_t home = homeTile(line_addr);
    Directory& dir = *shards_[home].directory;

    CacheLine* existing = tm.l2->find(line_addr);
    bool upgrade = for_write && existing != nullptr &&
                   existing->state == CacheState::Shared;
    GRAPHITE_ASSERT(upgrade || existing == nullptr);

    // Functional-only warmup: the transaction below still moves data
    // and permissions, but message and DRAM timing and miss
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

    cycle_t lat =
        leg(ViolationPoint::MemRequest, tile, home, CTRL_BYTES, now, sb);
    if (sb)
        sb->add(obs::SpanStage::Directory, now + lat, dirLatency_);
    lat += dirLatency_;

    DirectoryEntry& entry = dir.entry(line_addr);
    CoherenceRequest request = upgrade     ? CoherenceRequest::Upgrade
                               : for_write ? CoherenceRequest::Write
                                           : CoherenceRequest::Read;
    const CoherenceRule& rule =
        (*protocol_)[static_cast<int>(entry.state())]
                    [static_cast<int>(request)];
    GRAPHITE_ASSERT(rule.grant != CacheState::Invalid);
    std::vector<std::uint8_t> data;

    if (rule.invalidateSharers) {
        lat += invalidateSharers(tile, line_addr, entry.sharers(),
                                 /*droppable=*/true, now + lat, sb);
        entry.clearSharers();
    }
    if (rule.recallOwner) {
        // Home -> owner, then owner -> home with the data. A writer
        // takes the owner's copy; a reader leaves the owner a sharer.
        tile_id_t owner = entry.owner();
        GRAPHITE_ASSERT(owner != INVALID_TILE_ID && owner != tile);
        addSerialized(tm.stats.recalls);
        lat += leg(ViolationPoint::MemRecall, home, owner, CTRL_BYTES,
                   now + lat, sb);
        Cache& owner_l2 = *tiles_[owner].l2;
        const CacheLine* owner_line = owner_l2.find(line_addr);
        GRAPHITE_ASSERT(owner_line != nullptr);
        bool owner_dirty = owner_line->state == CacheState::Modified;
        if (for_write) {
            invalidateTile(owner, line_addr, /*coherence=*/true, &data);
        } else {
            data.assign(owner_line->data.get(),
                        owner_line->data.get() + lineSize_);
            auto lost = owner_l2.downgrade(line_addr);
            GRAPHITE_ASSERT(lost.has_value());
            foldWrites(line_addr, lost->writtenWords);
        }
        GRAPHITE_ASSERT(data.size() == lineSize_);
        lat += leg(ViolationPoint::MemRecall, owner, home,
                   lineSize_ + CTRL_BYTES, now + lat, sb);
        if (!for_write && owner_dirty) {
            // M -> S: shared copies must agree with memory, so the home
            // controller writes the recalled data back before replying.
            // The requester pays the occupancy (this also closes the
            // queueing feedback loop: demand on a saturated controller
            // throttles the threads generating it).
            backing_.write(line_addr, data.data(), data.size());
            lat += dramAccess(home, now + lat, sb, now + lat);
        }
        // M -> M: dirty ownership migrates cache-to-cache; memory stays
        // stale (the functional copy lives in the new owner's L2).
        // E -> S/x: the owner's copy was clean, memory is current.
        entry.reset();
        if (!for_write)
            dir.addSharer(entry, owner); // a first sharer costs nothing
    }
    if (rule.fetchMemory) {
        lat += dramAccess(home, now + lat, sb, now + lat);
        data.resize(lineSize_);
        backing_.read(line_addr, data.data(), lineSize_);
        // Fuzz-harness fault injection: a sabotaged DRAM fill returns
        // one flipped bit, emulating a stale/corrupt memory response.
        if (obs_.faults &&
            obs_.faults->shouldFire(check::FaultMode::StaleDramFill,
                                    line_addr))
            data[0] ^= 0x01;
    }

    if (rule.grant == CacheState::Shared) {
        entry.setState(DirectoryState::Shared);
        AddSharerResult r = dir.addSharer(entry, tile);
        if (sb)
            sb->add(obs::SpanStage::Directory, now + lat,
                    r.extraLatency);
        lat += r.extraLatency;
        // Dir_iNB pointer eviction: invalidate the displaced sharer.
        if (r.evicted.has_value())
            lat += invalidateSharers(tile, line_addr, {*r.evicted},
                                     /*droppable=*/false, now + lat, sb);
    } else {
        // The directory tracks E and M identically: one owner, whose
        // cache holds the authoritative copy (clean for E).
        entry.reset();
        entry.setState(DirectoryState::Modified);
        entry.setOwner(tile);
    }

    // Reply to the requester (an ack for an upgrade) and install.
    lat += leg(ViolationPoint::MemReply, home, tile,
               (upgrade ? 0 : lineSize_) + CTRL_BYTES, now + lat, sb);
    if (upgrade) {
        existing->state = rule.grant;
    } else {
        GRAPHITE_ASSERT(data.size() == lineSize_);
        auto ev = tm.l2->insert(line_addr, rule.grant, data);
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
    addSerialized(tm.stats.totalAccesses);
    addSerialized(tm.stats.totalLatency, res.latency);
    // Atomics stay out of the application access-latency distribution.
    if (rq.rmw == nullptr)
        tm.accessLatency.recordSerialized(res.latency);
}

CacheLine*
MemorySystem::chargeLookups(TileMemory& tm, const LineRequest& rq,
                            CacheLine* l1line, CacheLine* l2line,
                            AccessResult& res)
{
    // The L1 is write-through, so only the L2 can satisfy a write; the
    // L1 lookup still counts in its stats.
    if (rq.l1) {
        res.latency += l1Latency_;
        rq.l1->recordAccess(l1line, /*is_write=*/false);
    }
    res.latency += l2Latency_;
    return tm.l2->recordAccess(l2line, rq.isWrite);
}

void
MemorySystem::commitLine(TileMemory& tm, LineRequest& rq,
                         CacheLine& l2line, CacheLine* l1line)
{
    const addr_t offset = rq.addr - l2line.lineAddr;
    std::uint8_t* bytes = l2line.data.get() + offset;
    if (!rq.isWrite) {
        // A read reaches the L2 only when the L1 has no copy.
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
    // Warmup writes are not classified: a fast-forwarded write never
    // reaches a version.
    if (!fastForward())
        l2line.writtenWords |= wordMask(rq.addr, rq.size);
    std::memcpy(bytes, src, rq.size);
    // Write through into the L1d copy, if present. A plain write
    // allocates on an L1 miss; an atomic does not (rq.l1 is null), and
    // its write-through is the release fence the fuzz fault can skip.
    if (rq.rmw != nullptr && tm.l1d)
        l1line = tm.l1d->find(rq.addr);
    if (l1line == nullptr)
        fillL1(rq.l1, l2line);
    else if (!(rq.rmw != nullptr && obs_.faults &&
               obs_.faults->shouldFire(check::FaultMode::SkipReleaseFence,
                                       l2line.lineAddr)))
        std::memcpy(l1line->data.get() + offset, src, rq.size);
}

CacheProbe
MemorySystem::tryCompleteLocal(TileMemory& tm, LineRequest& rq,
                               AccessResult& res)
{
    res = AccessResult{};

    // L1 probe. The L1 is write-through, so a write "hit" only means the
    // copy is present (never Modified); reads complete here, writes
    // always continue to the L2 and write through to the copy found
    // here.
    CacheLine* l1line = rq.findL1();
    if (l1line != nullptr && !rq.isWrite) {
        res.latency = l1Latency_;
        rq.l1->recordAccess(l1line, /*is_write=*/false);
        std::memcpy(rq.buf,
                    l1line->data.get() + (rq.addr - l1line->lineAddr),
                    rq.size);
        res.l1Hit = true;
        finishAccess(tm, rq, res);
        return CacheProbe::Hit;
    }

    // L2 permission check. A negative answer charges nothing, so it
    // leaves no stats or LRU trace behind (the caller will come back
    // through the transaction path, which records the miss exactly
    // once).
    CacheLine* l2line = tm.l2->find(rq.addr);
    if (!Cache::sufficient(l2line, rq.isWrite))
        return l2line == nullptr ? CacheProbe::Miss
                                 : CacheProbe::NeedsUpgrade;
    chargeLookups(tm, rq, l1line, l2line, res);
    res.l2Hit = true;
    commitLine(tm, rq, *l2line, l1line);
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

        // Commit: run the request through the coherence transaction.
        const bool atomic = rq.rmw != nullptr;
        std::optional<obs::SpanBuilder> span;
        if (obs_.spans)
            span.emplace(*obs_.spans,
                         atomic       ? obs::SpanKind::Atomic
                         : rq.isWrite ? obs::SpanKind::WriteMiss
                                      : obs::SpanKind::ReadMiss,
                         rq.tile, home, start_time);
        CacheLine* l2line = chargeLookups(tm, rq, rq.findL1(),
                                          tm.l2->find(rq.addr), res);
        GRAPHITE_ASSERT(l2line == nullptr);
        if (span)
            span->add(obs::SpanStage::LocalCheck, start_time,
                      res.latency);
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
        commitLine(tm, rq, *l2line, rq.findL1());
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
    entry.reset();
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
            std::memcpy(out, line->data.get() + (addr - line_addr),
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
        if (!fastForward())
            foldWrites(line_addr, wordMask(addr, chunk));
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

    const char* total_names[] = {"mem.accesses_total",
                                 "mem.l2_misses_total",
                                 "mem.writebacks_total"};
    for (size_t i = 0; i < std::size(total_names); ++i)
        reg.registerGauge(total_names[i], [this, i] { return totals()[i]; });

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

std::array<stat_t, 3>
MemorySystem::totals() const
{
    std::array<stat_t, 3> sum{};
    for (const TileMemory& tm : tiles_) {
        sum[0] += tm.stats.totalAccesses.load(std::memory_order_relaxed);
        sum[1] += tm.l2->misses();
        sum[2] += tm.stats.writebacks.load(std::memory_order_relaxed);
    }
    return sum;
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
                if (std::memcmp(l2line->data.get(), line->data.get(),
                                lineSize_) != 0)
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
                if (std::memcmp(line->data.get(), mem.data(),
                                lineSize_) != 0)
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
                if (std::memcmp(line->data.get(), mem.data(),
                                lineSize_) != 0)
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
MemorySystem::serialize(snapshot::Archive& ar)
{
    ar.expect(tiles_.size(), "tile count");
    // The classifier indexes version vectors by word, so a restored one
    // must cover the line; only a lost line's may be empty.
    auto versions = [&](std::vector<std::uint32_t>& v, bool may_be_empty) {
        ar.seq<std::uint32_t>(v);
        if (ar.loading() && v.size() != lineSize_ / WORD_BYTES &&
            !(may_be_empty && v.empty()))
            throw snapshot::SnapshotError(
                strfmt("snapshot: {} word versions for a {}-byte line",
                       v.size(), lineSize_));
    };
    for (TileMemory& tm : tiles_) {
        lockdep::Guard lock(tm.mutex);
        auto l1 = [&](std::unique_ptr<Cache>& cache, const char* what) {
            ar.expect<std::uint8_t>(cache != nullptr, what);
            if (cache)
                cache->serialize(ar);
        };
        l1(tm.l1i, "L1I cache presence");
        l1(tm.l1d, "L1D cache presence");
        tm.l2->serialize(ar);

        TileMemoryStats& s = tm.stats;
        for (atomic_stat_t* v :
             {&s.totalAccesses, &s.totalLatency, &s.l2ColdMisses,
              &s.l2CapacityMisses, &s.l2TrueSharingMisses,
              &s.l2FalseSharingMisses, &s.l2UpgradeMisses,
              &s.invalidationsSent, &s.recalls, &s.writebacks})
            ar.u64(*v);

        ar.sorted(tm.everCached, [&](addr_t& a) { ar.u64(a); });
        ar.sorted(tm.lostLines, [&](addr_t& a, LostLine& ll) {
            ar.u64(a);
            ar.u8(ll.reason);
            versions(ll.versions, /*may_be_empty=*/true);
        });
    }

    for (Shard& sh : shards_) {
        lockdep::Guard lock(sh.mutex);
        sh.directory->serialize(ar, static_cast<tile_id_t>(tiles_.size()));
        sh.dram->serialize(ar);
        ar.sorted(sh.wordVersions,
                  [&](addr_t& a, std::vector<std::uint32_t>& v) {
                      ar.u64(a);
                      versions(v, /*may_be_empty=*/false);
                  });
    }

    // The format keeps one latency histogram, the tiles' parts merged. A
    // restore puts it on tile 0 and the other parts restart empty, so
    // the merged read is what was saved.
    HistogramStat latency;
    for (const TileMemory& tm : tiles_)
        latency.merge(tm.accessLatency);
    latency.serialize(ar);
    if (ar.loading()) {
        for (TileMemory& tm : tiles_)
            tm.accessLatency.reset();
        tiles_.front().accessLatency.merge(latency);
    }
    backing_.serialize(ar);
    manager_->serialize(ar);

    // The trailing totals repeat the per-tile counters above.
    for (stat_t total : totals())
        ar.expect(total, "memory total");
}

} // namespace graphite
