/**
 * @file
 * Checkpoint/resume manifest for suite campaigns.
 *
 * A campaign is a list of cells — (workload, predictor, mode,
 * budget) experiments keyed exactly like RunReport rows. The
 * manifest is a JSON file with one entry per cell: its status
 * (pending/done/failed), attempts spent, the last error, and — for
 * completed cells — the full result row. A guarded suite sweep
 * (robust::CellGuard, core/runner.hh) saves the manifest after every
 * cell it commits (write-temp-then-rename, so a kill at any instant
 * leaves a loadable file) and on restart replays completed cells
 * from their cached rows instead of recomputing. Because rows
 * round-trip bit-exactly through the same JSON code the report
 * writer uses, a resumed campaign's final report is byte-identical
 * to an uninterrupted one.
 *
 * A row key names a cell but not the traces it ran on, so the
 * manifest also records the campaign's identity: the experiment and
 * the suite's trace length and seed. open() refuses a manifest whose
 * identity differs — a rerun at another BPSIM_OPS_PER_WORKLOAD, or a
 * manifest handed to the wrong study, must not replay stale rows.
 */

#ifndef BPSIM_ROBUST_RUN_MANIFEST_HH
#define BPSIM_ROBUST_RUN_MANIFEST_HH

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/run_report.hh"

namespace bpsim::robust {

/** Thrown on unreadable/malformed manifest files. */
class RunManifestError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Per-cell progress and (when done) cached result. */
struct CellRecord
{
    enum class Status { Pending, Done, Failed };

    std::string key;
    Status status = Status::Pending;
    unsigned attempts = 0;
    std::string error; ///< last failure ("" when none)
    /** Completed cell's RunReport row (Done only; null otherwise). */
    obs::Json row;
};

/** The campaign checkpoint file; see file comment. */
class RunManifest
{
  public:
    /** 2: adds ops_per_workload and seed. */
    static constexpr int kSchemaVersion = 2;

    RunManifest() = default;
    RunManifest(std::string experiment, Counter ops_per_workload,
                std::uint64_t seed)
        : experiment_(std::move(experiment)),
          opsPerWorkload_(ops_per_workload),
          seed_(seed)
    {
    }

    const std::string &experiment() const { return experiment_; }
    /** Trace length of the suite the cells ran on. */
    Counter opsPerWorkload() const { return opsPerWorkload_; }
    /** Generation seed of that suite. */
    std::uint64_t seed() const { return seed_; }

    /** Cells in first-seen order. */
    const std::vector<CellRecord> &cells() const { return cells_; }

    /** Lookup by key; nullptr when absent. */
    const CellRecord *find(const std::string &key) const;

    bool
    isDone(const std::string &key) const
    {
        const CellRecord *c = find(key);
        return c && c->status == CellRecord::Status::Done;
    }

    /** Record a completed cell with its result row. */
    void markDone(const std::string &key, unsigned attempts,
                  obs::Json row);

    /** Record a permanently failed cell. */
    void markFailed(const std::string &key, unsigned attempts,
                    const std::string &error);

    /** Counts by status. */
    std::size_t done() const;
    std::size_t failed() const;

    obs::Json toJson() const;
    /** Throws RunManifestError on shape/schema problems. */
    static RunManifest fromJson(const obs::Json &j);

    /**
     * Atomically persist to @p path (write @p path.tmp, rename).
     * Throws RunManifestError on I/O failure.
     */
    void save(const std::string &path) const;

    /** Throws RunManifestError on I/O, parse or schema failure. */
    static RunManifest load(const std::string &path);

    /** True when @p path exists and is readable. */
    static bool exists(const std::string &path);

    /**
     * The campaign checkpoint at @p path: loaded when the file
     * exists, a fresh manifest with this identity otherwise. Throws
     * RunManifestError when the file's experiment, ops_per_workload
     * or seed differ from the arguments (and, like load(), on I/O,
     * parse or schema failure).
     */
    static RunManifest open(const std::string &path,
                            const std::string &experiment,
                            Counter ops_per_workload,
                            std::uint64_t seed);

  private:
    CellRecord &upsert(const std::string &key);

    std::string experiment_;
    Counter opsPerWorkload_ = 0;
    std::uint64_t seed_ = 0;
    std::vector<CellRecord> cells_;
    std::map<std::string, std::size_t> index_;
};

} // namespace bpsim::robust

#endif // BPSIM_ROBUST_RUN_MANIFEST_HH
