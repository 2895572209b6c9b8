#include "checkpoint.hh"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/logging.hh"

namespace glider {
namespace resilience {

namespace json = obs::json;

json::Value
encodeResult(const sim::SingleCoreResult &row)
{
    json::Value v = json::Value::object();
    v["workload"] = row.workload;
    v["policy"] = row.policy;
    v["instructions"] = row.instructions;
    v["cycles"] = row.cycles;
    v["ipc"] = row.ipc;
    v["accesses_simulated"] = row.accesses_simulated;
    json::Value llc = json::Value::object();
    llc["accesses"] = row.llc.accesses;
    llc["hits"] = row.llc.hits;
    llc["misses"] = row.llc.misses;
    llc["bypasses"] = row.llc.bypasses;
    llc["evictions"] = row.llc.evictions;
    v["llc"] = std::move(llc);
    json::Value predictor = json::Value::object();
    predictor["events"] = row.predictor.events;
    predictor["correct"] = row.predictor.correct;
    v["predictor"] = std::move(predictor);
    return v;
}

const json::Value &
rowField(const json::Value &row, const char *key)
{
    const json::Value *f = row.find(key);
    if (!f)
        throw std::runtime_error(std::string("row lacks ") + key);
    return *f;
}

sim::SingleCoreResult
decodeResult(const json::Value &v)
{
    // Every accessor throws std::runtime_error naming what is wrong,
    // so a damaged row is rejected whole instead of half-decoded.
    auto u64 = [](const json::Value &obj, const char *key) {
        std::int64_t n = rowField(obj, key).integer();
        if (n < 0)
            throw std::runtime_error(std::string("negative ") + key);
        return static_cast<std::uint64_t>(n);
    };
    sim::SingleCoreResult row;
    row.workload = rowField(v, "workload").str();
    row.policy = rowField(v, "policy").str();
    row.instructions = u64(v, "instructions");
    row.cycles = rowField(v, "cycles").number();
    row.ipc = rowField(v, "ipc").number();
    row.accesses_simulated = u64(v, "accesses_simulated");
    const json::Value &llc = rowField(v, "llc");
    row.llc.accesses = u64(llc, "accesses");
    row.llc.hits = u64(llc, "hits");
    row.llc.misses = u64(llc, "misses");
    row.llc.bypasses = u64(llc, "bypasses");
    row.llc.evictions = u64(llc, "evictions");
    const json::Value &predictor = rowField(v, "predictor");
    row.predictor.events = u64(predictor, "events");
    row.predictor.correct = u64(predictor, "correct");
    return row;
}

SweepCheckpoint::SweepCheckpoint(std::string path, std::string sweep,
                                 json::Value config)
    : path_(std::move(path)), sweep_(std::move(sweep)),
      config_(std::move(config))
{
}

std::size_t
SweepCheckpoint::load()
{
    std::FILE *f = std::fopen(path_.c_str(), "rb");
    if (!f)
        return 0; // nothing to resume from
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);

    json::Value doc;
    try {
        doc = json::Value::parse(text);
    } catch (const std::exception &e) {
        GLIDER_WARN("checkpoint " + path_
                    + ": unparseable, starting fresh (" + e.what()
                    + ")");
        return 0;
    }
    const json::Value *schema = doc.find("schema");
    const json::Value *version = doc.find("schema_version");
    if (!schema || !schema->isString()
        || schema->str() != "glider-sweep-ckpt" || !version
        || version->integer() != kSchemaVersion) {
        GLIDER_WARN("checkpoint " + path_
                    + ": wrong schema, starting fresh");
        return 0;
    }
    const json::Value *sweep = doc.find("sweep");
    if (!sweep || !sweep->isString() || sweep->str() != sweep_) {
        GLIDER_WARN("checkpoint " + path_ + ": written by another sweep "
                    "(not " + sweep_ + "), starting fresh");
        return 0;
    }
    const json::Value *config = doc.find("config");
    if (!config || *config != config_) {
        GLIDER_WARN("checkpoint " + path_
                    + ": config fingerprint differs (harness knobs "
                      "changed?), starting fresh");
        return 0;
    }
    const json::Value *cells = doc.find("cells");
    if (!cells || !cells->isObject())
        return 0;

    std::lock_guard<std::mutex> lock(mutex_);
    rows_.clear();
    for (const auto &[key, row] : cells->members())
        rows_[key] = row;
    return rows_.size();
}

const obs::json::Value *
SweepCheckpoint::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
}

void
SweepCheckpoint::record(const std::string &key, json::Value row)
{
    std::lock_guard<std::mutex> lock(mutex_);
    rows_[key] = std::move(row);
    save();
}

obs::json::Value
SweepCheckpoint::toJsonLocked() const
{
    json::Value out = json::Value::object();
    out["schema"] = "glider-sweep-ckpt";
    out["schema_version"] = kSchemaVersion;
    out["sweep"] = sweep_;
    out["config"] = config_;
    // std::map iterates sorted by key: the file's cell order depends
    // only on the cell set, never on completion order, which is what
    // makes interrupted-then-resumed output byte-identical.
    json::Value cells = json::Value::object();
    for (const auto &[key, row] : rows_)
        cells[key] = row;
    out["cells"] = std::move(cells);
    return out;
}

void
SweepCheckpoint::save() const
{
    std::string tmp = path_ + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        GLIDER_WARN("checkpoint: cannot open " + tmp + " for writing");
        return;
    }
    std::string doc = toJsonLocked().dump();
    doc += '\n';
    std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    bool closed = std::fclose(f) == 0;
    if (n != doc.size() || !closed) {
        GLIDER_WARN("checkpoint: short write to " + tmp);
        std::remove(tmp.c_str());
        return;
    }
    // Atomic replace: a kill at any point leaves either the old or
    // the new complete file, never a torn one.
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        GLIDER_WARN("checkpoint: rename to " + path_ + " failed");
}

} // namespace resilience
} // namespace glider
