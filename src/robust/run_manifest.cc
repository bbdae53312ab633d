#include "robust/run_manifest.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace bpsim::robust {

namespace {

const char *
statusName(CellRecord::Status s)
{
    switch (s) {
    case CellRecord::Status::Pending: return "pending";
    case CellRecord::Status::Done: return "done";
    case CellRecord::Status::Failed: return "failed";
    }
    return "pending";
}

CellRecord::Status
statusFromName(const std::string &s)
{
    if (s == "done")
        return CellRecord::Status::Done;
    if (s == "failed")
        return CellRecord::Status::Failed;
    if (s == "pending")
        return CellRecord::Status::Pending;
    throw RunManifestError("unknown cell status '" + s + "'");
}

} // namespace

const CellRecord *
RunManifest::find(const std::string &key) const
{
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &cells_[it->second];
}

CellRecord &
RunManifest::upsert(const std::string &key)
{
    const auto it = index_.find(key);
    if (it != index_.end())
        return cells_[it->second];
    index_.emplace(key, cells_.size());
    cells_.push_back(CellRecord{});
    cells_.back().key = key;
    return cells_.back();
}

void
RunManifest::markDone(const std::string &key, unsigned attempts,
                      obs::Json row)
{
    CellRecord &c = upsert(key);
    c.status = CellRecord::Status::Done;
    c.attempts = attempts;
    c.error.clear();
    c.row = std::move(row);
}

void
RunManifest::markFailed(const std::string &key, unsigned attempts,
                        const std::string &error)
{
    CellRecord &c = upsert(key);
    c.status = CellRecord::Status::Failed;
    c.attempts = attempts;
    c.error = error;
    c.row = obs::Json();
}

std::size_t
RunManifest::done() const
{
    std::size_t n = 0;
    for (const CellRecord &c : cells_)
        n += c.status == CellRecord::Status::Done ? 1 : 0;
    return n;
}

std::size_t
RunManifest::failed() const
{
    std::size_t n = 0;
    for (const CellRecord &c : cells_)
        n += c.status == CellRecord::Status::Failed ? 1 : 0;
    return n;
}

obs::Json
RunManifest::toJson() const
{
    obs::Json j = obs::Json::object();
    j.set("schema_version", obs::Json(kSchemaVersion));
    j.set("tool", obs::Json("bpsim-manifest"));
    j.set("experiment", obs::Json(experiment_));
    j.set("ops_per_workload", obs::Json(opsPerWorkload_));
    j.set("seed", obs::Json(seed_));
    obs::Json arr = obs::Json::array();
    for (const CellRecord &c : cells_) {
        obs::Json e = obs::Json::object();
        e.set("key", obs::Json(c.key));
        e.set("status", obs::Json(statusName(c.status)));
        e.set("attempts", obs::Json(c.attempts));
        if (!c.error.empty())
            e.set("error", obs::Json(c.error));
        if (c.status == CellRecord::Status::Done)
            e.set("row", c.row);
        arr.push(std::move(e));
    }
    j.set("cells", std::move(arr));
    return j;
}

RunManifest
RunManifest::fromJson(const obs::Json &j)
{
    try {
        const int version = static_cast<int>(
            j.get("schema_version").asNumber());
        if (version != kSchemaVersion)
            throw RunManifestError(
                "unsupported manifest schema_version " +
                std::to_string(version));
        RunManifest m(j.get("experiment").asString(),
                      j.get("ops_per_workload").asU64(),
                      j.get("seed").asU64());
        for (const obs::Json &e : j.get("cells").items()) {
            CellRecord &c = m.upsert(e.get("key").asString());
            c.status = statusFromName(e.get("status").asString());
            c.attempts = static_cast<unsigned>(
                e.get("attempts").asU64());
            if (const obs::Json *err = e.find("error"))
                c.error = err->asString();
            if (const obs::Json *row = e.find("row"))
                c.row = *row;
        }
        return m;
    } catch (const obs::JsonError &e) {
        throw RunManifestError(std::string("malformed manifest: ") +
                               e.what());
    }
}

void
RunManifest::save(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp);
        if (!os)
            throw RunManifestError("cannot open '" + tmp +
                                   "' for writing");
        os << toJson().dump(2) << '\n';
        if (!os)
            throw RunManifestError("short write on '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw RunManifestError("cannot rename '" + tmp + "' to '" +
                               path + "'");
    }
}

RunManifest
RunManifest::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw RunManifestError("cannot open manifest '" + path +
                               "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    try {
        return fromJson(obs::Json::parse(buf.str()));
    } catch (const obs::JsonError &e) {
        throw RunManifestError(path + ": " + e.what());
    }
}

bool
RunManifest::exists(const std::string &path)
{
    std::ifstream is(path);
    return static_cast<bool>(is);
}

RunManifest
RunManifest::open(const std::string &path, const std::string &experiment,
                  Counter ops_per_workload, std::uint64_t seed)
{
    if (!exists(path))
        return RunManifest(experiment, ops_per_workload, seed);
    RunManifest m = load(path);
    const auto mismatch = [&](const std::string &what,
                              const std::string &have,
                              const std::string &want) {
        throw RunManifestError(path + ": " + what + " is " + have +
                               ", this campaign's is " + want +
                               "; refusing to resume");
    };
    if (m.experiment_ != experiment)
        mismatch("experiment", "'" + m.experiment_ + "'",
                 "'" + experiment + "'");
    if (m.opsPerWorkload_ != ops_per_workload)
        mismatch("ops_per_workload",
                 std::to_string(m.opsPerWorkload_),
                 std::to_string(ops_per_workload));
    if (m.seed_ != seed)
        mismatch("seed", std::to_string(m.seed_),
                 std::to_string(seed));
    return m;
}

} // namespace bpsim::robust
