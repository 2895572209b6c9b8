#include "checked_policy.hh"

#include <sstream>

#include "invariants.hh"

namespace glider {
namespace verify {

namespace {

std::string
describe(const char *event, const sim::ReplacementAccess &access,
         const std::string &what)
{
    std::ostringstream os;
    os << event << ": " << what << " (set=" << access.set << " block=0x"
       << std::hex << access.block_addr << std::dec
       << " pc=0x" << std::hex << access.pc << std::dec
       << " core=" << static_cast<unsigned>(access.core) << ")";
    return os.str();
}

} // namespace

CheckedPolicy::CheckedPolicy(
    std::unique_ptr<sim::ReplacementPolicy> inner)
    : CheckedPolicy(std::move(inner), Options())
{
}

CheckedPolicy::CheckedPolicy(
    std::unique_ptr<sim::ReplacementPolicy> inner, Options options)
    : inner_(std::move(inner)), options_(options)
{
    require(inner_ != nullptr, "CheckedPolicy: null inner policy");
}

void
CheckedPolicy::reset(const sim::CacheGeometry &geom)
{
    require(geom.sets > 0 && (geom.sets & (geom.sets - 1)) == 0,
            "reset: sets must be a nonzero power of two");
    require(geom.ways > 0, "reset: ways must be nonzero");
    require(geom.cores >= 1, "reset: cores must be >= 1");
    geom_ = geom;
    shadow_.assign(geom.sets * geom.ways, ShadowLine{});
    clock_ = 0;
    phase_ = Phase::Idle;
    evict_seen_ = false;
    hits_ = misses_ = evictions_ = bypasses_ = 0;
    inner_->reset(geom);
}

void
CheckedPolicy::checkSetIndex(const sim::ReplacementAccess &access,
                             const char *event) const
{
    require(access.set < geom_.sets,
            describe(event, access, "set index out of range"));
    require(access.core < geom_.cores,
            describe(event, access, "core id out of range"));
}

std::uint32_t
CheckedPolicy::findBlock(std::uint64_t set, std::uint64_t block)
{
    ShadowLine *r = row(set);
    for (std::uint32_t w = 0; w < ways(); ++w) {
        if (r[w].valid && r[w].block == block)
            return w;
    }
    return ways();
}

std::uint32_t
CheckedPolicy::victimWay(const sim::ReplacementAccess &access,
                         sim::SetView lines)
{
    require(phase_ == Phase::Idle,
            describe("victimWay", access,
                     "previous miss sequence still open (onInsert "
                     "never arrived)"));
    checkSetIndex(access, "victimWay");
    require(lines.lines != nullptr && lines.ways == ways(),
            describe("victimWay", access,
                     "SetView shape does not match the geometry"));

    // The cache's tag array must agree with the protocol-derived
    // shadow, way for way; any drift means tag state was corrupted.
    ShadowLine *r = row(access.set);
    for (std::uint32_t w = 0; w < ways(); ++w) {
        require(lines[w].valid() == r[w].valid,
                describe("victimWay", access,
                         "tag-array valid bit disagrees with the "
                         "event-derived shadow state"));
        require(!lines[w].valid() || lines[w].block_addr == r[w].block,
                describe("victimWay", access,
                         "tag-array block disagrees with the "
                         "event-derived shadow state"));
    }
    require(findBlock(access.set, access.block_addr) == ways(),
            describe("victimWay", access,
                     "miss reported for a block that is resident"));

    ++misses_;
    std::uint32_t victim = inner_->victimWay(access, lines);
    require(victim <= ways(),
            describe("victimWay", access,
                     "victim way out of bounds (beyond the bypass "
                     "sentinel)"));

    if (victim == ways()) {
        ++bypasses_;
        return victim; // bypass: no insertion sequence opens
    }

    if (options_.verify_lru) {
        // True-LRU reference: fill an invalid way if one exists,
        // otherwise evict the least recently touched way.
        bool victim_valid = r[victim].valid;
        bool any_invalid = false;
        for (std::uint32_t w = 0; w < ways(); ++w)
            any_invalid = any_invalid || !r[w].valid;
        if (any_invalid) {
            require(!victim_valid,
                    describe("victimWay", access,
                             "LRU coherence: valid way evicted while "
                             "an invalid way was available"));
        } else {
            for (std::uint32_t w = 0; w < ways(); ++w) {
                require(r[victim].last_touch <= r[w].last_touch,
                        describe("victimWay", access,
                                 "LRU coherence: victim is not the "
                                 "least recently used way"));
            }
        }
    }

    phase_ = Phase::AfterVictim;
    pending_set_ = access.set;
    pending_block_ = access.block_addr;
    pending_way_ = victim;
    pending_evict_needed_ = r[victim].valid;
    evict_seen_ = false;
    return victim;
}

void
CheckedPolicy::onHit(const sim::ReplacementAccess &access,
                     std::uint32_t way)
{
    require(phase_ == Phase::Idle,
            describe("onHit", access,
                     "hit delivered inside an open miss sequence"));
    checkSetIndex(access, "onHit");
    require(way < ways(),
            describe("onHit", access, "hit way out of bounds"));

    ShadowLine *r = row(access.set);
    require(r[way].valid && r[way].block == access.block_addr,
            describe("onHit", access,
                     "hit on a way that does not hold the block"));
    for (std::uint32_t w = 0; w < ways(); ++w) {
        require(w == way || !r[w].valid
                    || r[w].block != access.block_addr,
                describe("onHit", access,
                         "duplicate tag: block resident in two ways "
                         "of one set"));
    }

    ++hits_;
    r[way].last_touch = ++clock_;
    inner_->onHit(access, way);
}

void
CheckedPolicy::onEvict(const sim::ReplacementAccess &access,
                       std::uint32_t way, const sim::LineView &victim)
{
    require(phase_ == Phase::AfterVictim,
            describe("onEvict", access,
                     "eviction outside a miss sequence"));
    require(access.set == pending_set_ && way == pending_way_,
            describe("onEvict", access,
                     "eviction does not match the chosen victim"));
    require(pending_evict_needed_,
            describe("onEvict", access,
                     "eviction reported for an invalid way"));
    require(!evict_seen_,
            describe("onEvict", access,
                     "duplicate eviction in one miss sequence"));

    const ShadowLine &line = row(access.set)[way];
    require(victim.valid() && victim.block_addr == line.block,
            describe("onEvict", access,
                     "evicted LineView disagrees with the "
                     "event-derived shadow state"));

    ++evictions_;
    evict_seen_ = true;
    inner_->onEvict(access, way, victim);
}

void
CheckedPolicy::onInsert(const sim::ReplacementAccess &access,
                        std::uint32_t way)
{
    require(phase_ == Phase::AfterVictim,
            describe("onInsert", access,
                     "insertion outside a miss sequence"));
    require(access.set == pending_set_ && way == pending_way_
                && access.block_addr == pending_block_,
            describe("onInsert", access,
                     "insertion does not match the open miss"));
    require(evict_seen_ == pending_evict_needed_,
            describe("onInsert", access,
                     pending_evict_needed_
                         ? "valid victim overwritten without onEvict"
                         : "spurious onEvict for an invalid way"));
    require(findBlock(access.set, access.block_addr) == ways(),
            describe("onInsert", access,
                     "duplicate tag: inserted block already resident "
                     "in the set"));

    ShadowLine &line = row(access.set)[way];
    line.valid = true;
    line.block = access.block_addr;
    line.last_touch = ++clock_;
    phase_ = Phase::Idle;
    evict_seen_ = false;
    inner_->onInsert(access, way);
}

std::unique_ptr<sim::ReplacementPolicy>
checkedPolicy(std::unique_ptr<sim::ReplacementPolicy> policy,
              CheckedPolicy::Options options)
{
    return std::make_unique<CheckedPolicy>(std::move(policy), options);
}

} // namespace verify
} // namespace glider
