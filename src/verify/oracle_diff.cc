#include "oracle_diff.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "opt/belady.hh"
#include "opt/optgen.hh"
#include "traces/access.hh"

namespace glider {
namespace verify {

std::vector<PcAgreement>
OracleDiffResult::worstPcs(std::size_t n, std::uint64_t min_events) const
{
    std::vector<PcAgreement> rows;
    rows.reserve(per_pc.size());
    for (const auto &kv : per_pc) {
        if (kv.second.events >= min_events)
            rows.push_back(kv.second);
    }
    std::sort(rows.begin(), rows.end(),
              [](const PcAgreement &a, const PcAgreement &b) {
                  if (a.rate() != b.rate())
                      return a.rate() < b.rate();
                  if (a.events != b.events)
                      return a.events > b.events;
                  return a.pc < b.pc;
              });
    if (rows.size() > n)
        rows.resize(n);
    return rows;
}

OracleDiffResult
diffOracles(const traces::Trace &llc_stream,
            const OracleDiffConfig &config)
{
    GLIDER_ASSERT(config.sets > 0
                  && (config.sets & (config.sets - 1)) == 0);
    GLIDER_ASSERT(config.ways > 0);

    OracleDiffResult res;
    res.stream_accesses = llc_stream.size();
    if (llc_stream.empty())
        return res;

    // Ground truth: exact MIN labels for every access of the stream.
    opt::BeladyResult exact =
        opt::simulateBelady(llc_stream, config.sets, config.ways);
    res.belady_hit_rate = exact.hitRate();

    // The live policies' sampler, so the differential sees the same
    // sets they train on.
    opt::OptGenSampler sampler(config.sets, config.ways,
                               config.sampled_sets,
                               config.window_quanta_per_way,
                               config.entries_per_way);

    // OPTgen events name only (pc, block); to line them up with the
    // exact oracle's per-access labels we track, per block, the index
    // of its most recent access — the access an event labels.
    std::unordered_map<std::uint64_t, std::size_t> last_index;
    last_index.reserve(1024);

    auto tally = [&](const opt::TrainingEvent &ev) {
        auto it = last_index.find(ev.block);
        if (it == last_index.end())
            return; // tracked entry predates our bookkeeping; skip
        bool exact_friendly = exact.labels[it->second] != 0;
        ++res.events;
        res.belady_friendly += exact_friendly;
        res.optgen_friendly += ev.opt_hit;
        bool agree = ev.opt_hit == exact_friendly;
        res.agreements += agree;
        PcAgreement &pc = res.per_pc[ev.pc];
        pc.pc = ev.pc;
        ++pc.events;
        pc.agree += agree;
    };

    for (std::size_t i = 0; i < llc_stream.size(); ++i) {
        const auto &rec = llc_stream[i];
        std::uint64_t block = traces::blockAddr(rec.address);
        std::uint64_t set = block & (config.sets - 1);
        if (!sampler.isSampled(set))
            continue;
        ++res.sampled_accesses;

        // An interval-closing event labels this block's previous
        // access, so consume it before updating last_index.
        if (auto ev = sampler.access(set, block, rec.pc, rec.core, {},
                                     false, false)) {
            tally(*ev);
        }
        // Aged-out / displaced entries were labelled cache-averse;
        // their last_index entries are dead once tallied. Every queue
        // is drained after each access, so these all come from set.
        while (auto ev = sampler.popExpired()) {
            tally(*ev);
            last_index.erase(ev->block);
        }
        last_index[block] = i;
    }
    return res;
}

double
suiteMeanAgreement(const std::vector<OracleSuiteEntry> &suite)
{
    if (suite.empty())
        return 1.0;
    double sum = 0.0;
    for (const auto &entry : suite)
        sum += entry.diff.agreement();
    return sum / static_cast<double>(suite.size());
}

double
suitePooledAgreement(const std::vector<OracleSuiteEntry> &suite)
{
    std::uint64_t events = 0, agree = 0;
    for (const auto &entry : suite) {
        events += entry.diff.events;
        agree += entry.diff.agreements;
    }
    return events ? static_cast<double>(agree)
            / static_cast<double>(events)
                  : 1.0;
}

obs::json::Value
oracleSuiteJson(const std::vector<OracleSuiteEntry> &suite, double gate)
{
    auto rate = [](std::uint64_t num, std::uint64_t den) {
        return den
            ? static_cast<double>(num) / static_cast<double>(den)
            : 0.0;
    };

    auto rows = obs::json::Value::array();
    for (const auto &entry : suite) {
        const OracleDiffResult &d = entry.diff;
        auto row = obs::json::Value::object();
        row["workload"] = obs::json::Value(entry.workload);
        row["llc_accesses"] = obs::json::Value(entry.llc_accesses);
        row["sampled_accesses"] = obs::json::Value(d.sampled_accesses);
        row["labelled_events"] = obs::json::Value(d.events);
        row["agreement"] = obs::json::Value(d.agreement());
        row["belady_hit_rate"] = obs::json::Value(d.belady_hit_rate);
        row["belady_friendly_rate"] =
            obs::json::Value(rate(d.belady_friendly, d.events));
        row["optgen_friendly_rate"] =
            obs::json::Value(rate(d.optgen_friendly, d.events));
        auto worst = obs::json::Value::array();
        for (const PcAgreement &pc : d.worstPcs(5)) {
            auto w = obs::json::Value::object();
            char hex[2 + 16 + 1];
            std::snprintf(hex, sizeof hex, "0x%llx",
                          static_cast<unsigned long long>(pc.pc));
            w["pc"] = obs::json::Value(hex);
            w["events"] = obs::json::Value(pc.events);
            w["agreement"] = obs::json::Value(pc.rate());
            worst.push(std::move(w));
        }
        row["worst_pcs"] = std::move(worst);
        rows.push(std::move(row));
    }

    double mean = suiteMeanAgreement(suite);
    auto doc = obs::json::Value::object();
    doc["suite"] = std::move(rows);
    doc["mean_agreement"] = obs::json::Value(mean);
    doc["pooled_agreement"] =
        obs::json::Value(suitePooledAgreement(suite));
    doc["gate"] = obs::json::Value(gate);
    doc["pass"] = obs::json::Value(mean >= gate);
    return doc;
}

} // namespace verify
} // namespace glider
