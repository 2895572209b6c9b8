#include "policy_factory.hh"

#include <charconv>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "core/policy_traits.hh"
#include "glider_policy.hh"
#include "verify/checked_policy.hh"
#include "policies/coalesce.hh"
#include "policies/frd.hh"
#include "policies/hawkeye.hh"
#include "policies/heuristics.hh"
#include "policies/lru.hh"
#include "policies/mpppb.hh"
#include "policies/mustache.hh"
#include "policies/random.hh"
#include "policies/rrip.hh"
#include "policies/sdbp.hh"
#include "policies/ship.hh"

namespace glider {
namespace core {

// Registration gate: every policy constructible through makePolicy
// must satisfy the full compile-time contract (see policy_traits.hh).
// Adding a policy below without noexcept hot methods or with a
// drifted signature fails right here, naming the concept.
static_assert(RegisteredPolicy<policies::LruPolicy>);
static_assert(RegisteredPolicy<policies::RandomPolicy>);
static_assert(RegisteredPolicy<policies::SrripPolicy>);
static_assert(RegisteredPolicy<policies::BrripPolicy>);
static_assert(RegisteredPolicy<policies::DrripPolicy>);
static_assert(RegisteredPolicy<policies::SdbpPolicy>);
static_assert(RegisteredPolicy<policies::ShipPolicy>);
static_assert(RegisteredPolicy<policies::ShipPPPolicy>);
static_assert(RegisteredPolicy<policies::MpppbPolicy>);
static_assert(RegisteredPolicy<policies::HawkeyePolicy>);
static_assert(RegisteredPolicy<GliderPolicy>);
// The policy zoo (ROADMAP bullet 3): reuse-distance regression,
// Markov lookahead, perceptron bypass, and the two cheap heuristics.
static_assert(RegisteredPolicy<policies::FrdPolicy>);
static_assert(RegisteredPolicy<policies::MustachePolicy>);
static_assert(RegisteredPolicy<policies::CoalescePolicy>);
static_assert(RegisteredPolicy<policies::EntropyAgePolicy>);
static_assert(RegisteredPolicy<policies::DecayCountPolicy>);

// The invariant checker is deliberately NOT a RegisteredPolicy: it
// reports protocol violations by throwing, so its hot methods cannot
// be noexcept.
static_assert(!PolicyHotPath<verify::CheckedPolicy>);

std::string
gliderSpec(const GliderConfig &config)
{
    const GliderConfig defaults;
    std::string keys; // each key with a leading ';'
    if (config.pchr_size != defaults.pchr_size)
        keys += ";pchr=" + std::to_string(config.pchr_size);
    if (!config.adaptive_threshold)
        keys += ";threshold=" + std::to_string(config.fixed_threshold);
    if (config.confidence_threshold != defaults.confidence_threshold)
        keys += ";confidence="
            + std::to_string(config.confidence_threshold);
    return keys.empty() ? "Glider" : "Glider{" + keys.substr(1) + "}";
}

std::vector<std::string>
policyNames()
{
    return {"LRU",     "Random",   "SRRIP",      "BRRIP",
            "DRRIP",   "SDBP",     "SHiP",       "SHiP++",
            "MPPPB",   "Hawkeye",  "Glider",     "FRD",
            "MUSTACHE", "COALESCE", "EntropyAge", "DecayCount"};
}

std::vector<std::string>
paperLineup()
{
    return {"Hawkeye", "MPPPB", "SHiP++", "Glider"};
}

std::vector<std::string>
zooLineup()
{
    return {"FRD", "MUSTACHE", "COALESCE", "EntropyAge", "DecayCount"};
}

namespace {

/**
 * GliderConfig of "Glider{key=value;...}", whose brace opens at
 * @p open; fatal on an unknown or repeated key or a bad value.
 */
GliderConfig
parseGliderKeys(const std::string &spec, std::size_t open)
{
    if (spec.back() != '}')
        GLIDER_FATAL("unterminated policy spec " + spec);
    GliderConfig cfg;
    std::set<std::string> seen;
    std::istringstream keys(spec.substr(open + 1, spec.size() - open - 2));
    for (std::string item; std::getline(keys, item, ';');) {
        std::size_t eq = item.find('=');
        std::string key = item.substr(0, eq);
        int n = -1;
        bool ok = eq != std::string::npos && seen.insert(key).second;
        if (ok) {
            const char *end = item.data() + item.size();
            auto [ptr, ec] = std::from_chars(item.data() + eq + 1, end, n);
            ok = ec == std::errc() && ptr == end && n >= 0;
        }
        if (ok && key == "pchr" && n >= 1
            && static_cast<std::size_t>(n) <= kIsvmMaxHistory) {
            cfg.pchr_size = static_cast<std::size_t>(n);
        } else if (ok && key == "threshold") {
            cfg.adaptive_threshold = false;
            cfg.fixed_threshold = n;
        } else if (ok && key == "confidence") {
            cfg.confidence_threshold = n;
        } else {
            GLIDER_FATAL("unknown key or bad value " + item
                         + " in policy spec " + spec);
        }
    }
    return cfg;
}

std::unique_ptr<sim::ReplacementPolicy>
makeRawPolicy(const std::string &name)
{
    if (std::size_t open = name.find('{'); open != std::string::npos) {
        if (name.compare(0, open, "Glider") != 0)
            GLIDER_FATAL("unknown policy: " + name);
        return std::make_unique<GliderPolicy>(parseGliderKeys(name, open));
    }
    if (name == "LRU")
        return std::make_unique<policies::LruPolicy>();
    if (name == "Random")
        return std::make_unique<policies::RandomPolicy>();
    if (name == "SRRIP")
        return std::make_unique<policies::SrripPolicy>();
    if (name == "BRRIP")
        return std::make_unique<policies::BrripPolicy>();
    if (name == "DRRIP")
        return std::make_unique<policies::DrripPolicy>();
    if (name == "SDBP")
        return std::make_unique<policies::SdbpPolicy>();
    if (name == "SHiP")
        return std::make_unique<policies::ShipPolicy>();
    if (name == "SHiP++")
        return std::make_unique<policies::ShipPPPolicy>();
    if (name == "MPPPB")
        return std::make_unique<policies::MpppbPolicy>();
    if (name == "Hawkeye")
        return std::make_unique<policies::HawkeyePolicy>();
    if (name == "Glider")
        return std::make_unique<GliderPolicy>();
    if (name == "FRD")
        return std::make_unique<policies::FrdPolicy>();
    if (name == "MUSTACHE")
        return std::make_unique<policies::MustachePolicy>();
    if (name == "COALESCE")
        return std::make_unique<policies::CoalescePolicy>();
    if (name == "EntropyAge")
        return std::make_unique<policies::EntropyAgePolicy>();
    if (name == "DecayCount")
        return std::make_unique<policies::DecayCountPolicy>();
    GLIDER_FATAL("unknown policy: " + name);
}

} // namespace

std::unique_ptr<sim::ReplacementPolicy>
makePolicy(const std::string &spec)
{
    std::unique_ptr<sim::ReplacementPolicy> policy = makeRawPolicy(spec);
#ifdef GLIDER_CHECKED
    // Checked builds: every simulation driven through the factory
    // (benches, examples, tests) runs under full invariant checking.
    // True-LRU additionally gets reference-model victim verification.
    verify::CheckedPolicy::Options options;
    options.verify_lru = spec == "LRU";
    policy = verify::checkedPolicy(std::move(policy), options);
#endif
    return policy;
}

std::string
canonicalPolicySpec(const std::string &spec)
{
    return makeRawPolicy(spec)->name();
}

} // namespace core
} // namespace glider
