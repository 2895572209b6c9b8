#include "private_filter.hh"

#include "basic_lru.hh"

namespace glider {
namespace sim {

PrivateFilter::PrivateFilter(const HierarchyConfig &config)
    : l1_(config.l1, std::make_unique<BasicLruPolicy>()),
      l2_(config.l2, std::make_unique<BasicLruPolicy>())
{
}

void
PrivateFilter::filter(std::span<const traces::AccessRecord> records,
                      DepthCodes &out)
{
    const std::size_t words =
        (records.size() + DepthCodes::kPerWord - 1) / DepthCodes::kPerWord;
    // glider-lint: allow(hotpath-alloc) grows only to the largest
    // chunk seen, then reuses its capacity
    out.words_.assign(words, 0);
    out.size_ = records.size();
    out.llc_ = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const auto &rec = records[i];
        // True LRU ignores the core id, so every record runs as core 0.
        PrivateDepth d = access(0, rec.pc, traces::blockAddr(rec.address),
                                rec.is_write);
        out.llc_ += d == PrivateDepth::Llc;
        out.words_[i / DepthCodes::kPerWord] |=
            static_cast<DepthCodes::Word>(d)
            << (i % DepthCodes::kPerWord * DepthCodes::kBits);
    }
}

std::shared_ptr<const DepthCodes>
PrivateFilter::of(const traces::Trace &trace, const HierarchyConfig &config)
{
    const traces::TraceMemo::Key key = {config.l1.size_bytes,
                                        config.l1.ways,
                                        config.l2.size_bytes,
                                        config.l2.ways};
    return trace.memo().get<DepthCodes>(key, [&] {
        PrivateFilter filter(config);
        // glider-lint: allow(hotpath-alloc) once per (trace, L1/L2
        // shape), before any replay reads the codes
        auto codes = std::make_shared<DepthCodes>();
        filter.filter(trace.records(), *codes);
        return codes;
    });
}

} // namespace sim
} // namespace glider
