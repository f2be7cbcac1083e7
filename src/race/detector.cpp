#include "common/lockdep.h"
#include "race/detector.h"

#include <algorithm>
#include <cstdio>

#include "common/config.h"
#include "common/log.h"
#include "common/strfmt.h"
#include "obs/trace_event.h"

namespace graphite
{
namespace race
{

namespace
{

thread_local int t_suppress = 0;
/** The calling thread's current site, interned by t_siteOwner. */
thread_local const Detector* t_siteOwner = nullptr;
thread_local std::uint32_t t_site = 0;
thread_local const char* t_siteName = nullptr;

std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

const char*
kindName(RaceKind k)
{
    switch (k) {
      case RaceKind::WriteWrite: return "write-write";
      case RaceKind::ReadWrite: return "read-write";
      case RaceKind::WriteRead: return "write-read";
    }
    return "?";
}

const char*
kindTag(RaceKind k)
{
    switch (k) {
      case RaceKind::WriteWrite: return "ww";
      case RaceKind::ReadWrite: return "rw";
      case RaceKind::WriteRead: return "wr";
    }
    return "?";
}

std::string
hexStr(addr_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

Detector::InternalScope::InternalScope()
{
    ++t_suppress;
}

Detector::InternalScope::~InternalScope()
{
    --t_suppress;
}

bool
Detector::suppressed()
{
    return t_suppress > 0;
}

Detector::Detector(const Config& cfg, tile_id_t total_tiles,
                   obs::TraceSink* trace)
    : totalTiles_(total_tiles),
      maxShadowLines_(static_cast<std::uint64_t>(
          cfg.getInt("race/max_shadow_lines", 1 << 20))),
      maxRecords_(
          static_cast<std::uint64_t>(cfg.getInt("race/max_records", 256))),
      reportOut_(cfg.getString("race/report_out", "")),
      trace_(trace)
{
    for (std::size_t i = 0; i < NUM_SHARDS; ++i)
        shards_[i].mutex.setInstance(static_cast<std::int64_t>(i));
    threads_.assign(static_cast<std::size_t>(total_tiles), ThreadState{});
    for (ThreadState& t : threads_)
        t.vc.assign(static_cast<std::size_t>(total_tiles), 0);
    // Clocks start at 1 so a live epoch never equals EPOCH_NONE.
    for (tile_id_t t = 0; t < total_tiles; ++t)
        threads_[t].vc[t] = 1;
    siteNames_.assign(1, "?");
}

std::unique_ptr<Detector>
Detector::fromConfig(const Config& cfg, tile_id_t total_tiles,
                     obs::TraceSink* trace)
{
    if (!cfg.getBool("race/enabled", false))
        return nullptr;
    return std::make_unique<Detector>(cfg, total_tiles, trace);
}

std::uint32_t
Detector::setSite(const char* name)
{
    // Fast path: the same string literal as last time on this thread.
    if (name == t_siteName && t_siteOwner == this)
        return t_site;
    std::uint32_t id;
    {
        lockdep::Guard lock(sitesMutex_);
        auto [it, inserted] = siteIds_.try_emplace(
            name, static_cast<std::uint32_t>(siteNames_.size()));
        if (inserted)
            siteNames_.emplace_back(name);
        id = it->second;
    }
    t_siteOwner = this;
    t_siteName = name;
    t_site = id;
    return id;
}

std::string
Detector::siteName(std::uint32_t id) const
{
    lockdep::Guard lock(sitesMutex_);
    if (id < siteNames_.size())
        return siteNames_[id];
    return "?";
}

// ------------------------------------------------------------ vector clocks

void
Detector::join(std::vector<std::uint64_t>& into,
               const std::vector<std::uint64_t>& from)
{
    if (into.size() < from.size())
        into.resize(from.size(), 0);
    for (std::size_t i = 0; i < from.size(); ++i)
        into[i] = std::max(into[i], from[i]);
}

// ------------------------------------------------------------- data accesses

void
Detector::onAccess(tile_id_t tile, addr_t addr, std::uint64_t size,
                   bool is_write, cycle_t when)
{
    if (size == 0)
        return;
    GRAPHITE_ASSERT(tile >= 0 && tile < totalTiles_);
    // The thread's own clock vector is only mutated by itself or by the
    // MCP while it is blocked, so it is quiescent here (see header).
    const std::vector<std::uint64_t>& vc = threads_[tile].vc;
    std::uint32_t site = t_siteOwner == this ? t_site : 0;

    addr_t first = addr & ~addr_t{3};
    addr_t last = (addr + size - 1) & ~addr_t{3};
    for (addr_t a = first;; a += 4) {
        checkWord(tile, vc, a, is_write, site, when);
        if (a >= last)
            break;
    }
}

void
Detector::expandLine(ShadowLine& line) const
{
    line.cells.assign(WORDS_PER_LINE, WordCell{});
    for (std::uint32_t i = 0; i < WORDS_PER_LINE; ++i) {
        if (line.cw[i] != 0) {
            line.cells[i].w = makeEpoch(line.owner, line.cw[i]);
            line.cells[i].wSite = line.cwSite[i];
        }
        if (line.cr[i] != 0) {
            line.cells[i].r = makeEpoch(line.owner, line.cr[i]);
            line.cells[i].rSite = line.crSite[i];
        }
    }
    line.owner = INVALID_TILE_ID;
}

void
Detector::checkWord(tile_id_t tile, const std::vector<std::uint64_t>& vc,
                    addr_t word_addr, bool is_write, std::uint32_t site,
                    cycle_t when)
{
    checked_.fetch_add(1, std::memory_order_relaxed);
    addr_t line_addr = word_addr & ~addr_t{LINE_BYTES - 1};
    auto widx = static_cast<std::uint32_t>((word_addr >> 2) &
                                           (WORDS_PER_LINE - 1));
    Shard& shard =
        shards_[mix64(line_addr >> 6) & (NUM_SHARDS - 1)];
    lockdep::Guard lock(shard.mutex);

    auto it = shard.lines.find(line_addr);
    if (it == shard.lines.end()) {
        // Bound the table: forgetting history can only miss races.
        if (shard.lines.size() >=
            maxShadowLines_ / NUM_SHARDS + 1) {
            evictions_.fetch_add(shard.lines.size(),
                                 std::memory_order_relaxed);
            lineCount_.fetch_sub(shard.lines.size(),
                                 std::memory_order_relaxed);
            shard.lines.clear();
        }
        it = shard.lines.emplace(line_addr, ShadowLine{}).first;
        lineCount_.fetch_add(1, std::memory_order_relaxed);
        it->second.owner = tile;
    }
    ShadowLine& line = it->second;
    std::uint64_t my_clock = vc[tile];

    if (line.owner != INVALID_TILE_ID) {
        if (line.owner == tile) {
            // Single-owner compact path: same-thread accesses cannot
            // race; just advance the recorded clocks.
            if (is_write) {
                line.cw[widx] = my_clock;
                line.cwSite[widx] = site;
            } else {
                line.cr[widx] = my_clock;
                line.crSite[widx] = site;
            }
            return;
        }
        // Second thread touches the line: lossless expansion to full
        // per-word FastTrack cells.
        expandLine(line);
        expansions_.fetch_add(1, std::memory_order_relaxed);
    }

    WordCell& cell = line.cells[widx];
    epoch_t my_epoch = makeEpoch(tile, my_clock);

    if (!is_write) {
        if (cell.readVc.empty() && cell.r == my_epoch)
            return; // same-epoch read
        if (cell.w != EPOCH_NONE) {
            tile_id_t wt = epochTile(cell.w);
            if (wt != tile && epochClock(cell.w) > vc[wt])
                report(RaceKind::WriteRead, word_addr, cell.w,
                       cell.wSite, tile, my_clock, site, when);
        }
        if (!cell.readVc.empty()) {
            cell.readVc[tile] = my_clock;
            cell.rSite = site;
            return;
        }
        if (cell.r == EPOCH_NONE || epochTile(cell.r) == tile ||
            epochClock(cell.r) <= vc[epochTile(cell.r)]) {
            // Previous read happens-before us: stay in the cheap
            // exclusive-read representation.
            cell.r = my_epoch;
            cell.rSite = site;
        } else {
            // Two concurrent readers: promote to a read vector clock.
            cell.readVc.assign(static_cast<std::size_t>(totalTiles_),
                               0);
            cell.readVc[epochTile(cell.r)] = epochClock(cell.r);
            cell.readVc[tile] = my_clock;
            cell.r = EPOCH_NONE;
            cell.rSite = site;
        }
        return;
    }

    if (cell.w == my_epoch)
        return; // same-epoch write
    if (cell.w != EPOCH_NONE) {
        tile_id_t wt = epochTile(cell.w);
        if (wt != tile && epochClock(cell.w) > vc[wt])
            report(RaceKind::WriteWrite, word_addr, cell.w, cell.wSite,
                   tile, my_clock, site, when);
    }
    if (!cell.readVc.empty()) {
        for (tile_id_t u = 0; u < totalTiles_; ++u) {
            if (u != tile && cell.readVc[u] > vc[u]) {
                report(RaceKind::ReadWrite, word_addr,
                       makeEpoch(u, cell.readVc[u]), cell.rSite, tile,
                       my_clock, site, when);
                break;
            }
        }
    } else if (cell.r != EPOCH_NONE) {
        tile_id_t rt = epochTile(cell.r);
        if (rt != tile && epochClock(cell.r) > vc[rt])
            report(RaceKind::ReadWrite, word_addr, cell.r, cell.rSite,
                   tile, my_clock, site, when);
    }
    cell.w = my_epoch;
    cell.wSite = site;
    cell.r = EPOCH_NONE;
    cell.readVc.clear();
}

void
Detector::clearRange(addr_t addr, std::uint64_t size)
{
    if (size == 0)
        return;
    addr_t first = addr & ~addr_t{LINE_BYTES - 1};
    addr_t last = (addr + size - 1) & ~addr_t{LINE_BYTES - 1};
    for (addr_t a = first;; a += LINE_BYTES) {
        Shard& shard = shards_[mix64(a >> 6) & (NUM_SHARDS - 1)];
        lockdep::Guard lock(shard.mutex);
        if (shard.lines.erase(a) != 0)
            lineCount_.fetch_sub(1, std::memory_order_relaxed);
        if (a >= last)
            break;
    }
}

// ------------------------------------------------------- synchronization

void
Detector::onAtomic(tile_id_t tile, addr_t addr, bool release)
{
    lockdep::Guard lock(syncMutex_);
    ThreadState& t = threads_[tile];
    auto it = syncVc_.find(addr);
    if (it != syncVc_.end())
        join(t.vc, it->second); // acquire
    if (release) {
        std::vector<std::uint64_t>& sv = syncVc_[addr];
        join(sv, t.vc);
        ++t.vc[tile];
    }
    edges_.fetch_add(1, std::memory_order_relaxed);
}

void
Detector::acquireAddr(tile_id_t tile, addr_t addr)
{
    lockdep::Guard lock(syncMutex_);
    auto it = syncVc_.find(addr);
    if (it != syncVc_.end())
        join(threads_[tile].vc, it->second);
    edges_.fetch_add(1, std::memory_order_relaxed);
}

void
Detector::releaseAddr(tile_id_t tile, addr_t addr)
{
    lockdep::Guard lock(syncMutex_);
    ThreadState& t = threads_[tile];
    join(syncVc_[addr], t.vc);
    ++t.vc[tile];
    edges_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
Detector::barrierArrive(tile_id_t tile, addr_t barrier,
                        std::uint32_t total)
{
    lockdep::Guard lock(syncMutex_);
    ThreadState& t = threads_[tile];
    BarrierState& st = barriers_[barrier];
    join(st.pending, t.vc);
    ++t.vc[tile]; // release: later work is not part of this generation
    std::uint64_t gen = st.gen;
    if (++st.arrived >= total) {
        st.released[gen] = std::move(st.pending);
        st.pending.clear();
        st.arrived = 0;
        ++st.gen;
        // A participant can lag at most one full generation (the next
        // one cannot close without its arrival), so two suffice.
        while (st.released.size() > 2)
            st.released.erase(st.released.begin());
    }
    edges_.fetch_add(1, std::memory_order_relaxed);
    return gen;
}

void
Detector::barrierLeave(tile_id_t tile, addr_t barrier, std::uint64_t gen)
{
    lockdep::Guard lock(syncMutex_);
    auto bit = barriers_.find(barrier);
    GRAPHITE_ASSERT(bit != barriers_.end());
    auto git = bit->second.released.find(gen);
    // The generation must be closed before any waiter can leave it.
    GRAPHITE_ASSERT(git != bit->second.released.end());
    join(threads_[tile].vc, git->second);
}

void
Detector::edge(tile_id_t from, tile_id_t to)
{
    if (from < 0 || to < 0 || from >= totalTiles_ || to >= totalTiles_)
        return;
    lockdep::Guard lock(syncMutex_);
    ThreadState& f = threads_[from];
    join(threads_[to].vc, f.vc);
    ++f.vc[from];
    edges_.fetch_add(1, std::memory_order_relaxed);
}

void
Detector::threadStart(tile_id_t tile)
{
    lockdep::Guard lock(syncMutex_);
    ++threads_[tile].vc[tile];
}

void
Detector::msgSendEdge(tile_id_t from, tile_id_t to)
{
    lockdep::Guard lock(syncMutex_);
    ThreadState& f = threads_[from];
    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
         << 32) |
        static_cast<std::uint32_t>(to);
    channels_[key].push_back(f.vc);
    ++f.vc[from];
    edges_.fetch_add(1, std::memory_order_relaxed);
}

void
Detector::msgRecvEdge(tile_id_t from, tile_id_t to)
{
    lockdep::Guard lock(syncMutex_);
    std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
         << 32) |
        static_cast<std::uint32_t>(to);
    auto it = channels_.find(key);
    if (it == channels_.end() || it->second.empty())
        return;
    join(threads_[to].vc, it->second.front());
    it->second.pop_front();
}

// ----------------------------------------------------------------- reports

void
Detector::report(RaceKind kind, addr_t addr, epoch_t prev,
                 std::uint32_t prev_site, tile_id_t cur_tile,
                 std::uint64_t cur_clock, std::uint32_t cur_site,
                 cycle_t when)
{
    races_.fetch_add(1, std::memory_order_relaxed);
    if (trace_ != nullptr)
        trace_->instant(static_cast<std::uint32_t>(cur_tile), "race", when,
                        "addr", static_cast<std::int64_t>(addr));

    std::uint64_t key =
        mix64(addr) ^ mix64((static_cast<std::uint64_t>(kind) << 60) ^
                            (static_cast<std::uint64_t>(prev_site)
                             << 32) ^
                            cur_site);
    lockdep::Guard lock(recordsMutex_);
    auto it = recordIndex_.find(key);
    if (it != recordIndex_.end()) {
        ++records_[it->second].count;
        return;
    }
    if (records_.size() >= maxRecords_)
        return;
    RaceRecord r;
    r.kind = kind;
    r.addr = addr;
    r.prevTile = epochTile(prev);
    r.prevClock = epochClock(prev);
    r.curTile = cur_tile;
    r.curClock = cur_clock;
    r.prevSite = prev_site;
    r.curSite = cur_site;
    r.cycle = when;
    recordIndex_.emplace(key, records_.size());
    records_.push_back(r);
}

std::vector<RaceRecord>
Detector::records() const
{
    lockdep::Guard lock(recordsMutex_);
    return records_;
}

std::string
Detector::describe(const RaceRecord& r) const
{
    return strfmt("{} race on {}: tile {} [{}] vs tile {} [{}] "
                  "at cycle {} (x{})",
                  kindName(r.kind), hexStr(r.addr), r.prevTile,
                  siteName(r.prevSite), r.curTile, siteName(r.curSite),
                  r.cycle, r.count);
}

stat_t
Detector::shadowLines() const
{
    return lineCount_.load(std::memory_order_relaxed);
}

void
Detector::finalizeReport() const
{
    if (reportOut_.empty())
        return;
    std::FILE* f = std::fopen(reportOut_.c_str(), "w");
    if (f == nullptr)
        fatal("race/report_out: cannot write '{}'", reportOut_);
    std::vector<RaceRecord> recs = records();
    for (const RaceRecord& r : recs) {
        std::string line = strfmt(
            "{{\"kind\":\"{}\",\"addr\":{},\"prev_tile\":{},"
            "\"prev_clock\":{},\"prev_site\":\"{}\",\"cur_tile\":{},"
            "\"cur_clock\":{},\"cur_site\":\"{}\",\"cycle\":{},"
            "\"count\":{}}}",
            kindTag(r.kind), r.addr, r.prevTile, r.prevClock,
            siteName(r.prevSite), r.curTile, r.curClock,
            siteName(r.curSite), r.cycle, r.count);
        std::fputs(line.c_str(), f);
        std::fputc('\n', f);
    }
    std::fclose(f);
}

} // namespace race
} // namespace graphite
