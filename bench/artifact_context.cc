#include "artifact_registry.hh"

#include <cstdarg>
#include <cstdio>
#include <exception>
#include <vector>

#include "trace/shared_trace_pool.hh"

namespace bpsim {

void
SweepContext::printf(const char *fmt, ...)
{
    char stack[1024];
    std::va_list ap;
    va_start(ap, fmt);
    std::va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(stack, sizeof(stack), fmt, ap);
    va_end(ap);
    if (n < 0) {
        va_end(ap2);
        return;
    }
    if (static_cast<std::size_t>(n) < sizeof(stack)) {
        write(stack, static_cast<std::size_t>(n));
    } else {
        std::vector<char> heap(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(heap.data(), heap.size(), fmt, ap2);
        write(heap.data(), static_cast<std::size_t>(n));
    }
    va_end(ap2);
}

StandaloneSweepContext::StandaloneSweepContext(
    const ArtifactSpec &spec, const BenchArgs &args)
    : session_(args.report, args.trace, spec.name),
      pool_(args.jobs, spec.name),
      manifest_(args.manifest)
{
    // Timing runs under --trace bypass the pool (runner.cc hands the
    // tracer a serial path so event streams stay in cycle order);
    // say so instead of silently ignoring a multi-job request.
    if (session_.tracer() && pool_.jobs() > 1)
        std::fprintf(stderr,
                     "%s: --trace forces serial cell execution; "
                     "--jobs %u ignored for traced runs\n",
                     spec.name.c_str(), pool_.jobs());
}

StandaloneSweepContext::~StandaloneSweepContext()
{
    // Before the session's finish() snapshots the registry: stamp
    // the pool's execution stats and the process-wide trace-pool
    // counters so --report runs carry utilization and sharing info.
    if (session_.wantReport()) {
        pool_.stats().publish(session_.metrics());
        SharedTracePool::global().stats().publish(session_.metrics());
    }
}

void
StandaloneSweepContext::write(const char *data, std::size_t n)
{
    std::fwrite(data, 1, n, stdout);
}

BufferedSweepContext::BufferedSweepContext(const ArtifactSpec &spec,
                                           parallel::CellPool *pool,
                                           bool want_report,
                                           std::string manifest)
    : metrics_(/*enabled=*/true),
      pool_(pool),
      wantReport_(want_report),
      manifest_(std::move(manifest))
{
    report_.experiment = spec.name;
}

void
BufferedSweepContext::finalize()
{
    // Mirror the standalone destructor: stamp the pool's execution
    // stats before the snapshot, so sweep-written reports carry the
    // same `parallel.pool.*` series (bpstat summary reads them).
    // Metrics never participate in bpstat diff, so the wall-clock
    // fields can differ from a standalone run.
    if (wantReport_ && pool_)
        pool_->stats().publish(metrics_);
    if (metrics_.size() > 0)
        report_.metrics = metrics_.toJson();
}

void
BufferedSweepContext::write(const char *data, std::size_t n)
{
    out_.append(data, n);
}

int
artifactMain(const ArtifactDef &def, int argc, char **argv)
{
    const BenchArgs args =
        BenchArgs::parse(argc, argv, def.spec.acceptsManifest,
                         def.spec.extraUsage);
    try {
        StandaloneSweepContext ctx(def.spec, args);
        return def.fn(def.spec, ctx);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", def.spec.name.c_str(),
                     e.what());
        return 1;
    }
}

void
benchHeader(SweepContext &ctx, const std::string &artifact,
            const std::string &what, Counter ops)
{
    static const char rule[] =
        "==============================================================\n";
    ctx.printf("%s", rule);
    ctx.printf("%s — %s\n", artifact.c_str(), what.c_str());
    ctx.printf("workloads: SPECint2000 stand-ins, %llu ops each "
               "(BPSIM_OPS_PER_WORKLOAD to scale)\n",
               static_cast<unsigned long long>(ops));
    ctx.printf("%s", rule);
}

} // namespace bpsim
