/**
 * @file
 * Process-wide pool of materialized traces.
 *
 * A sweep runs many artifacts in one process, and most of them replay
 * the same twelve workload traces at the same ops/seed. Without
 * sharing, every SuiteTraces would deserialize (or regenerate) its
 * own private copy — at paper scale that is gigabytes of redundant
 * memory and most of the cold start. The pool guarantees each
 * (workload, ops, seed) key is materialized at most once per process
 * and handed out as a shared read-only buffer:
 *
 *  - the first requester materializes inline, through the supplied
 *    TraceCache (disk hit) or generator (miss, then stored);
 *  - concurrent requesters for the same key block on the in-flight
 *    materialization instead of duplicating it;
 *  - later requesters get the cached buffer for free.
 *
 * Entries are held by weak_ptr: the pool itself keeps nothing alive
 * by default. When the last suite using a trace drops it, the memory
 * is reclaimed and a later request re-materializes. Failures
 * propagate to every blocked requester and are not cached — the next
 * request retries.
 *
 * Setting BPSIM_TRACE_POOL_MB adds a bounded strong-reference LRU on
 * top: the pool pins up to that many megabytes of recently used
 * traces so a sweep that cycles through more suites than fit in the
 * weak window stops thrashing re-materialization, while a long
 * server process keeps its resident set capped. Over-budget traces
 * are evicted least-recently-fetched first (the weak entry remains,
 * so suites still holding the buffer are unaffected) and counted in
 * stats().evictions. Unset, 0 or anything but a whole positive
 * decimal ("1.5", "2k") means unlimited (no pinning — today's
 * behavior).
 *
 * Sharing is opt-in per SuiteTraces (see runner.hh): suites that are
 * byte-compared against a private-copy baseline keep private copies.
 */

#ifndef BPSIM_TRACE_SHARED_TRACE_POOL_HH
#define BPSIM_TRACE_SHARED_TRACE_POOL_HH

#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/types.hh"
#include "obs/metrics.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"

namespace bpsim {

/** Once-per-process trace materialization; see file comment. */
class SharedTracePool
{
  public:
    /** How a fetch was served. */
    enum class Source
    {
        Memory,   ///< already materialized in this process
        Disk,      ///< first requester, served by the trace cache
        Generated, ///< first requester, generated (and stored)
    };

    struct Stats
    {
        Counter memoryHits = 0;
        Counter diskHits = 0;
        Counter generated = 0;
        /** Strong LRU entries dropped to stay under the budget. */
        Counter evictions = 0;

        /** Export as `<prefix>.*` counters. */
        void publish(obs::MetricRegistry &reg,
                     const std::string &prefix = "trace.pool") const;
    };

    /** The process-wide instance. */
    static SharedTracePool &global();

    SharedTracePool();
    SharedTracePool(const SharedTracePool &) = delete;
    SharedTracePool &operator=(const SharedTracePool &) = delete;

    /**
     * The trace for a key, materializing it at most once per process
     * (via @p cache, falling back to @p generate). Blocks when
     * another thread is already materializing the same key.
     * @p source (when non-null) reports how this call was served.
     * Materialization failures rethrow to every waiting caller.
     */
    std::shared_ptr<const TraceBuffer>
    fetch(const std::string &workload, Counter ops,
          std::uint64_t seed, const TraceCache &cache,
          const std::function<TraceBuffer()> &generate,
          Source *source = nullptr);

    Stats stats() const;

    /** Drop every entry (weak and pinned) and zero the stats (test
     *  isolation only — buffers still referenced elsewhere stay
     *  alive). */
    void clear();

    /** Override the BPSIM_TRACE_POOL_MB budget, in bytes (0 =
     *  unlimited). Evicts immediately if the pinned set is already
     *  over the new budget. Tests and long-running servers only. */
    void setBudgetBytes(std::size_t bytes);

    /** Bytes currently pinned by the strong LRU. */
    std::size_t pinnedBytes() const;

  private:
    using TracePtr = std::shared_ptr<const TraceBuffer>;

    struct Entry
    {
        std::weak_ptr<const TraceBuffer> cached;
        /** Valid while some thread is materializing this key. */
        std::shared_future<TracePtr> inflight;
    };

    struct LruEntry
    {
        std::string key;
        TracePtr trace;
        std::size_t bytes = 0;
    };

    /** Pin @p sp at the LRU front and evict over-budget tails.
     *  Caller holds mu_. No-op when the budget is unlimited. */
    void touchLocked(const std::string &key, const TracePtr &sp);

    mutable std::mutex mu_;
    std::map<std::string, Entry> entries_;
    /** Most recently fetched first; holds strong refs up to
     *  budgetBytes_. */
    std::list<LruEntry> lru_;
    std::size_t lruBytes_ = 0;
    std::size_t budgetBytes_ = 0;
    Stats stats_;
};

} // namespace bpsim

#endif // BPSIM_TRACE_SHARED_TRACE_POOL_HH
