#include "belady.hh"

#include "common/logging.hh"
#include "traces/access.hh"

namespace glider {
namespace opt {

std::vector<std::size_t>
computeNextUse(const traces::Trace &stream)
{
    std::vector<std::size_t> next(stream.size(), SIZE_MAX);
    std::unordered_map<std::uint64_t, std::size_t> last_seen;
    last_seen.reserve(stream.size() / 4 + 1);
    for (std::size_t i = stream.size(); i-- > 0;) {
        std::uint64_t block = traces::blockAddr(stream[i].address);
        auto it = last_seen.find(block);
        if (it != last_seen.end())
            next[i] = it->second;
        last_seen[block] = i;
    }
    return next;
}

BeladyResult
simulateBelady(const traces::Trace &stream, std::uint64_t sets,
               std::uint32_t ways)
{
    GLIDER_ASSERT(sets > 0 && (sets & (sets - 1)) == 0);
    GLIDER_ASSERT(ways > 0);

    std::vector<std::size_t> next = computeNextUse(stream);

    BeladyResult res;
    // glider-lint: allow(hotpath-alloc) offline oracle, not the
    // simulator access path
    res.labels.assign(stream.size(), 0);
    // glider-lint: allow(hotpath-alloc) same setup pass as above.
    res.hits.assign(stream.size(), 0);

    struct Line
    {
        std::uint64_t block = 0;
        std::size_t next_use = SIZE_MAX;
        std::size_t brought_by = SIZE_MAX; //!< access index that filled
        bool valid = false;
    };
    std::vector<Line> lines(sets * ways);
    // block -> way slot, per set, for O(1) hit lookup.
    std::unordered_map<std::uint64_t, std::uint32_t> where;
    where.reserve(sets * ways * 2);

    for (std::size_t i = 0; i < stream.size(); ++i) {
        std::uint64_t block = traces::blockAddr(stream[i].address);
        std::uint64_t set = block & (sets - 1);
        Line *row = &lines[set * ways];

        auto it = where.find(block);
        if (it != where.end()) {
            Line &line = row[it->second];
            GLIDER_ASSERT(line.valid && line.block == block);
            res.hits[i] = 1;
            ++res.hit_count;
            // The access that brought/kept this line got its reuse:
            // it is cache-friendly by the oracle's definition.
            if (line.brought_by != SIZE_MAX)
                res.labels[line.brought_by] = 1;
            line.next_use = next[i];
            line.brought_by = i;
            continue;
        }

        // Miss: find the victim with the farthest next use; bypass if
        // the incoming line's next use is farther still.
        std::uint32_t victim = ways; // sentinel: bypass
        std::size_t victim_next = next[i];
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (!row[w].valid) {
                victim = w;
                break;
            }
            if (row[w].next_use > victim_next) {
                victim = w;
                victim_next = row[w].next_use;
            }
        }
        if (victim == ways)
            continue; // incoming reused farthest (or never): bypass
        if (row[victim].valid)
            where.erase(row[victim].block);
        row[victim] = Line{block, next[i], i, true};
        where[block] = victim;
    }
    return res;
}

BeladyPolicy::BeladyPolicy(const traces::Trace &stream)
    : stream_(&stream), next_use_(computeNextUse(stream))
{
}

void
BeladyPolicy::reset(const sim::CacheGeometry &geom)
{
    geom_ = geom;
    cursor_ = 0;
    line_next_use_.assign(geom.sets * geom.ways, SIZE_MAX);
}

std::size_t
BeladyPolicy::advance(const sim::ReplacementAccess &access) noexcept
{
    GLIDER_ASSERT(cursor_ < stream_->size());
    std::uint64_t expect =
        traces::blockAddr((*stream_)[cursor_].address);
    if (expect != access.block_addr) {
        GLIDER_PANIC("BeladyPolicy stream desync: the driver must "
                     "replay the construction stream in order");
    }
    return cursor_++;
}

std::uint32_t
BeladyPolicy::victimWay(const sim::ReplacementAccess &access,
                        sim::SetView lines) noexcept
{
    std::size_t i = advance(access);
    std::size_t incoming_next = next_use_[i];

    std::uint32_t victim = geom_.ways;
    std::size_t victim_next = incoming_next;
    std::size_t *row = &line_next_use_[access.set * geom_.ways];
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (!lines[w].valid())
            return w;
        if (row[w] > victim_next) {
            victim = w;
            victim_next = row[w];
        }
    }
    return victim; // geom_.ways means bypass (optimal here)
}

void
BeladyPolicy::onHit(const sim::ReplacementAccess &access,
                    std::uint32_t way) noexcept
{
    std::size_t i = advance(access);
    line_next_use_[access.set * geom_.ways + way] = next_use_[i];
}

void
BeladyPolicy::onEvict(const sim::ReplacementAccess &, std::uint32_t,
                      const sim::LineView &) noexcept
{
}

void
BeladyPolicy::onInsert(const sim::ReplacementAccess &access,
                       std::uint32_t way) noexcept
{
    // victimWay() already consumed the stream position for this miss;
    // cursor_ - 1 is the current access.
    line_next_use_[access.set * geom_.ways + way] =
        next_use_[cursor_ - 1];
}

} // namespace opt
} // namespace glider
