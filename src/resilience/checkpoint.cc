#include "checkpoint.hh"

#include <cstdio>
#include <stdexcept>
#include <utility>
#include <vector>

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

SweepCheckpoint::~SweepCheckpoint()
{
    // An object that only load()ed leaves the file as it found it: a
    // reader must not rewrite a journal another process appends to.
    if (journal_)
        finish();
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

    // The sorted document parses whole; a journal does not (one JSON
    // value per line), so it is read line by line after its header.
    json::Value doc;
    std::vector<std::string> lines;
    try {
        doc = json::Value::parse(text);
    } catch (const std::exception &) {
        std::size_t start = 0;
        while (start < text.size()) {
            std::size_t end = text.find('\n', start);
            if (end == std::string::npos)
                end = text.size();
            lines.push_back(text.substr(start, end - start));
            start = end + 1;
        }
        try {
            doc = json::Value::parse(lines.empty() ? text : lines[0]);
        } catch (const std::exception &e) {
            GLIDER_WARN("checkpoint " + path_
                        + ": unparseable, starting fresh (" + e.what()
                        + ")");
            return 0;
        }
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

    std::lock_guard<std::mutex> lock(mutex_);
    rows_.clear();
    if (const json::Value *cells = doc.find("cells");
        cells && cells->isObject()) {
        for (const auto &[key, row] : cells->members())
            rows_[key] = row;
    }
    for (std::size_t i = 1; i < lines.size(); ++i) {
        // A later line for the same key supersedes an earlier one.
        try {
            json::Value line = json::Value::parse(lines[i]);
            const std::string &key = rowField(line, "key").str();
            rows_[key] = rowField(line, "row");
        } catch (const std::exception &e) {
            GLIDER_WARN("checkpoint " + path_ + ": dropping torn line "
                        + std::to_string(i + 1) + " (" + e.what() + ")");
        }
    }
    journaled_ = !lines.empty();
    return rows_.size();
}

const obs::json::Value *
SweepCheckpoint::find(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
}

namespace {

/** One journal line: {"key": @p key, "row": @p row}. */
std::string
journalLine(const std::string &key, const json::Value &row)
{
    json::Value line = json::Value::object();
    line["key"] = key;
    line["row"] = row;
    return line.dump(0) + '\n';
}

} // namespace

void
SweepCheckpoint::record(const std::string &key, json::Value row)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string line = journalLine(key, row);
    rows_[key] = std::move(row);
    if (!journal_) {
        openJournalLocked(); // writes every row, this one included
        return;
    }
    std::size_t n = std::fwrite(line.data(), 1, line.size(), journal_);
    bytes_written_ += n;
    // Flushed per line: abort() does not flush stdio buffers.
    if (n != line.size() || std::fflush(journal_) != 0) {
        GLIDER_WARN("checkpoint: short append to " + path_);
        closeJournalLocked(); // the next record() rewrites the journal
    }
}

void
SweepCheckpoint::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closeJournalLocked();
    if (journaled_ && replaceLocked(toJsonLocked(true).dump() + '\n'))
        journaled_ = false;
}

std::uint64_t
SweepCheckpoint::bytesWritten() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_written_;
}

obs::json::Value
SweepCheckpoint::toJsonLocked(bool cells) const
{
    json::Value out = json::Value::object();
    out["schema"] = "glider-sweep-ckpt";
    out["schema_version"] = kSchemaVersion;
    out["sweep"] = sweep_;
    out["config"] = config_;
    if (!cells)
        return out;
    // std::map iterates sorted by key: the file's cell order depends
    // only on the cell set, never on completion order, which is what
    // makes interrupted-then-resumed output byte-identical.
    json::Value rows = json::Value::object();
    for (const auto &[key, row] : rows_)
        rows[key] = row;
    out["cells"] = std::move(rows);
    return out;
}

void
SweepCheckpoint::openJournalLocked()
{
    std::string text = toJsonLocked(false).dump(0) + '\n';
    for (const auto &[key, row] : rows_)
        text += journalLine(key, row);
    if (!replaceLocked(text))
        return;
    journaled_ = true;
    journal_ = std::fopen(path_.c_str(), "ab");
    if (!journal_)
        GLIDER_WARN("checkpoint: cannot append to " + path_);
}

void
SweepCheckpoint::closeJournalLocked()
{
    if (journal_) {
        std::fclose(journal_);
        journal_ = nullptr;
    }
}

bool
SweepCheckpoint::replaceLocked(const std::string &text)
{
    std::string tmp = path_ + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        GLIDER_WARN("checkpoint: cannot open " + tmp + " for writing");
        return false;
    }
    std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
    bytes_written_ += n;
    bool closed = std::fclose(f) == 0;
    if (n != text.size() || !closed) {
        GLIDER_WARN("checkpoint: short write to " + tmp);
        std::remove(tmp.c_str());
        return false;
    }
    // Atomic replace: a kill at any point leaves either the old or
    // the new complete file, never a torn one.
    if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
        GLIDER_WARN("checkpoint: rename to " + path_ + " failed");
        return false;
    }
    return true;
}

} // namespace resilience
} // namespace glider
