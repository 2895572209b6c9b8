#include "llc_stream.hh"

#include "cachesim/private_filter.hh"

namespace glider {
namespace opt {

traces::Trace
extractLlcStream(const traces::Trace &cpu_trace,
                 const sim::HierarchyConfig &config)
{
    auto codes = sim::PrivateFilter::of(cpu_trace, config);
    traces::Trace out(cpu_trace.name() + ".llc");
    for (std::size_t i = 0; i < cpu_trace.size(); ++i) {
        if ((*codes)[i] == sim::PrivateDepth::Llc)
            out.push(cpu_trace[i]);
    }
    return out;
}

} // namespace opt
} // namespace glider
