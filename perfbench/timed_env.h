/**
 * @file
 * Timing environment for the benchmark's traced run.
 *
 * The workload kernels in src/workloads are templates over their
 * environment, so the traced run instantiates the same kernel over
 * TimedEnv instead of SimEnv. TimedEnv forwards every call to
 * graphite::api exactly as SimEnv does and records a span around each
 * ld/st/atomicAdd/exec/branch/barrier call and each thread spawn. The
 * kernels start their threads through an unqualified runThreads call,
 * so argument-dependent lookup picks the TimedEnv overload below.
 *
 * Storage is per host thread (one per target thread): for each call
 * class a count and a log-linear histogram of durations, plus a bounded
 * reservoir of raw spans. Nothing is written until the run has ended.
 *
 * A read is classed as an L1 hit or a miss by the simulated cycles it
 * charged, read from api::cycle() outside the timed window.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "core/api.h"
#include "workloads/env.h"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Call classes timed by the traced run. */
enum class Call
{
    ReadHit,
    ReadMiss,
    Write,
    Atomic,
    Exec,
    Branch,
    Barrier,
    Spawn,
    Count
};
inline constexpr int NUM_CALLS = static_cast<int>(Call::Count);

inline const char*
callName(Call c)
{
    static const char* const names[NUM_CALLS] = {
        "read_hit", "read_miss", "write", "atomic",
        "exec",     "branch",    "barrier", "spawn"};
    return names[static_cast<int>(c)];
}

/**
 * Log-linear duration histogram: exact below 32 ns, then 16 buckets per
 * power of two (at most 1/16 relative width). Durations are capped at
 * 2^40 ns.
 */
struct DurationHistogram
{
    static constexpr int SUB_BITS = 4;
    static constexpr int SUB = 1 << SUB_BITS;
    static constexpr int MAX_EXP = 40;
    static constexpr int BUCKETS = (MAX_EXP - SUB_BITS + 2) * SUB;

    std::uint64_t count = 0;
    std::uint64_t buckets[BUCKETS] = {};

    static int
    bucketOf(std::uint64_t ns)
    {
        if (ns < SUB)
            return static_cast<int>(ns);
        if (ns >= (std::uint64_t{1} << (MAX_EXP + 1)))
            ns = (std::uint64_t{1} << (MAX_EXP + 1)) - 1;
        int e = 63 - __builtin_clzll(ns);
        return (e - SUB_BITS + 1) * SUB +
               static_cast<int>((ns >> (e - SUB_BITS)) & (SUB - 1));
    }

    static double
    bucketLow(int b)
    {
        if (b < SUB)
            return b;
        int e = b / SUB + SUB_BITS - 1;
        std::uint64_t sub = static_cast<std::uint64_t>(b % SUB);
        return static_cast<double>((std::uint64_t{1} << e) |
                                   (sub << (e - SUB_BITS)));
    }

    void
    add(std::uint64_t ns)
    {
        ++count;
        ++buckets[bucketOf(ns)];
    }

    void
    merge(const DurationHistogram& o)
    {
        count += o.count;
        for (int b = 0; b < BUCKETS; ++b)
            buckets[b] += o.buckets[b];
    }

    /**
     * Quantile @p q in [0,1], interpolated linearly by rank inside its
     * bucket; 0 if empty.
     */
    double
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        double rank = q * static_cast<double>(count - 1);
        std::uint64_t seen = 0;
        for (int b = 0; b < BUCKETS; ++b) {
            if (buckets[b] == 0)
                continue;
            if (static_cast<double>(seen + buckets[b]) > rank) {
                double lo = bucketLow(b);
                double hi = b + 1 < BUCKETS ? bucketLow(b + 1) : lo + 1;
                double within = (rank - static_cast<double>(seen) + 0.5) /
                                static_cast<double>(buckets[b]);
                return lo + (hi - lo) * within;
            }
            seen += buckets[b];
        }
        return bucketLow(BUCKETS - 1);
    }
};

/** One raw span; its parent is the run span. */
struct RawSpan
{
    Call call;
    graphite::tile_id_t tile;
    std::int64_t startNs; ///< relative to the run span's start
    std::int64_t endNs;
};

/** Everything one host thread recorded. */
struct ThreadTrace
{
    static constexpr std::uint64_t SAMPLE_PER_CALL = 16;

    graphite::tile_id_t tile = 0;
    DurationHistogram hist[NUM_CALLS];
    std::vector<RawSpan> sample[NUM_CALLS];
    std::uint64_t rng = 0x9E3779B97F4A7C15ull;

    /** Vitter's algorithm R over this thread's spans of one class. */
    void
    keep(const RawSpan& s)
    {
        auto& res = sample[static_cast<int>(s.call)];
        std::uint64_t seen = hist[static_cast<int>(s.call)].count;
        if (res.size() < SAMPLE_PER_CALL) {
            res.push_back(s);
            return;
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        std::uint64_t slot = rng % seen;
        if (slot < SAMPLE_PER_CALL)
            res[slot] = s;
    }
};

/** Process-wide trace of one traced simulation. */
class Tracer
{
  public:
    static Tracer&
    instance()
    {
        static Tracer t;
        return t;
    }

    /** Open the run span; @p hit_cycles: a read charging fewer simulated
     *  cycles is an L1 hit. */
    void
    begin(std::uint64_t hit_cycles)
    {
        hitCycles_ = hit_cycles;
        runStart_ = Clock::now();
    }

    void end() { runEnd_ = Clock::now(); }

    std::uint64_t hitCycles() const { return hitCycles_; }

    void
    record(Call c, Clock::time_point t0, Clock::time_point t1)
    {
        ThreadTrace& tt = local();
        auto rel = [this](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - runStart_)
                .count();
        };
        auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        tt.hist[static_cast<int>(c)].add(ns);
        tt.keep(RawSpan{c, tt.tile, rel(t0), rel(t1)});
    }

    /** Histogram of one call class merged over all threads. */
    DurationHistogram
    merged(Call c) const
    {
        std::lock_guard<std::mutex> g(mu_);
        DurationHistogram h;
        for (const auto& t : threads_)
            h.merge(t->hist[static_cast<int>(c)]);
        return h;
    }

    /**
     * Write the run span, per-class aggregates and the sampled raw spans
     * to @p path as one JSON object. @return false if it cannot be
     * written.
     */
    bool
    write(const char* path, const char* run_id) const
    {
        std::FILE* f = std::fopen(path, "w");
        if (f == nullptr)
            return false;
        auto ns = [](Clock::duration d) {
            return static_cast<long long>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                    .count());
        };
        std::fprintf(f,
                     "{\"run\": {\"name\": \"run\", \"id\": \"%s\", "
                     "\"start_ns\": 0, \"end_ns\": %lld},\n \"calls\": {",
                     run_id, ns(runEnd_ - runStart_));
        for (int c = 0; c < NUM_CALLS; ++c) {
            DurationHistogram h = merged(static_cast<Call>(c));
            std::fprintf(f,
                         "%s\n  \"%s\": {\"count\": %llu, \"p50_ns\": %.1f, "
                         "\"p99_ns\": %.1f, \"buckets\": [",
                         c ? "," : "", callName(static_cast<Call>(c)),
                         static_cast<unsigned long long>(h.count),
                         h.quantile(0.5), h.quantile(0.99));
            bool first = true;
            for (int b = 0; b < DurationHistogram::BUCKETS; ++b) {
                if (h.buckets[b] == 0)
                    continue;
                std::fprintf(f, "%s[%.0f, %llu]", first ? "" : ", ",
                             DurationHistogram::bucketLow(b),
                             static_cast<unsigned long long>(h.buckets[b]));
                first = false;
            }
            std::fprintf(f, "]}");
        }
        std::fprintf(f, "},\n \"spans\": [");
        bool first = true;
        std::lock_guard<std::mutex> g(mu_);
        for (const auto& t : threads_)
            for (const auto& res : t->sample)
                for (const RawSpan& s : res) {
                    std::fprintf(f,
                                 "%s\n  {\"name\": \"%s\", \"parent\": "
                                 "\"%s\", \"tile\": %d, \"start_ns\": %lld, "
                                 "\"end_ns\": %lld}",
                                 first ? "" : ",", callName(s.call),
                                 run_id, static_cast<int>(s.tile),
                                 static_cast<long long>(s.startNs),
                                 static_cast<long long>(s.endNs));
                    first = false;
                }
        std::fprintf(f, "\n ]}\n");
        return std::fclose(f) == 0;
    }

  private:
    ThreadTrace&
    local()
    {
        thread_local ThreadTrace* mine = nullptr;
        if (mine == nullptr) {
            auto t = std::make_unique<ThreadTrace>();
            t->tile = graphite::api::tileId();
            t->rng += static_cast<std::uint64_t>(t->tile);
            std::lock_guard<std::mutex> g(mu_);
            threads_.push_back(std::move(t));
            mine = threads_.back().get();
        }
        return *mine;
    }

    std::uint64_t hitCycles_ = 0;
    Clock::time_point runStart_{};
    Clock::time_point runEnd_{};
    mutable std::mutex mu_; ///< guards threads_
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/** SimEnv that times each call into graphite::api. */
class TimedEnv : public graphite::workloads::SimEnv
{
  public:
    using SimEnv::SimEnv;

    template <typename T>
    T
    ld(Ptr base, std::uint64_t idx)
    {
        graphite::cycle_t c0 = graphite::api::cycle();
        Clock::time_point t0 = Clock::now();
        T v = SimEnv::ld<T>(base, idx);
        Clock::time_point t1 = Clock::now();
        Tracer& tr = Tracer::instance();
        bool hit = graphite::api::cycle() - c0 < tr.hitCycles();
        tr.record(hit ? Call::ReadHit : Call::ReadMiss, t0, t1);
        return v;
    }

    template <typename T>
    void
    st(Ptr base, std::uint64_t idx, T v)
    {
        Clock::time_point t0 = Clock::now();
        SimEnv::st<T>(base, idx, v);
        Tracer::instance().record(Call::Write, t0, Clock::now());
    }

    std::uint32_t
    atomicAdd(Ptr base, std::uint64_t idx, std::int32_t d)
    {
        Clock::time_point t0 = Clock::now();
        std::uint32_t v = SimEnv::atomicAdd(base, idx, d);
        Tracer::instance().record(Call::Atomic, t0, Clock::now());
        return v;
    }

    void
    exec(graphite::InstrClass c, std::uint64_t n)
    {
        Clock::time_point t0 = Clock::now();
        SimEnv::exec(c, n);
        Tracer::instance().record(Call::Exec, t0, Clock::now());
    }

    void
    branch(std::uint64_t site, bool taken)
    {
        Clock::time_point t0 = Clock::now();
        SimEnv::branch(site, taken);
        Tracer::instance().record(Call::Branch, t0, Clock::now());
    }

    void
    barrier(Ptr b)
    {
        Clock::time_point t0 = Clock::now();
        SimEnv::barrier(b);
        Tracer::instance().record(Call::Barrier, t0, Clock::now());
    }
};

template <typename Shared, void (*FN)(TimedEnv&, Shared&)>
void
timedThreadTramp(void* p)
{
    auto* a = static_cast<graphite::workloads::ThreadArg<Shared>*>(p);
    TimedEnv env(a->self, a->nthreads);
    FN(env, *a->shared);
}

/** runThreads for TimedEnv, found by ADL; times each spawn. */
template <typename Shared, void (*FN)(TimedEnv&, Shared&)>
void
runThreads(TimedEnv&, int nthreads, Shared& sh)
{
    std::vector<graphite::workloads::ThreadArg<Shared>> args(nthreads);
    std::vector<graphite::tile_id_t> tids;
    for (int i = 1; i < nthreads; ++i) {
        args[i] = graphite::workloads::ThreadArg<Shared>{&sh, i, nthreads};
        Clock::time_point t0 = Clock::now();
        tids.push_back(graphite::api::threadSpawn(
            &timedThreadTramp<Shared, FN>, &args[i]));
        Tracer::instance().record(Call::Spawn, t0, Clock::now());
    }
    TimedEnv env(0, nthreads);
    FN(env, sh);
    for (graphite::tile_id_t t : tids)
        graphite::api::threadJoin(t);
}

} // namespace perfbench
