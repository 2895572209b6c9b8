#include "trace.hh"

namespace glider {
namespace traces {

Trace
Trace::slice(std::size_t first, std::size_t count) const
{
    Trace out(name_ + ".slice");
    if (first >= records_.size())
        return out;
    std::size_t last = first + count;
    if (last > records_.size())
        last = records_.size();
    for (std::size_t i = first; i < last; ++i)
        out.push(records_[i]);
    return out;
}

} // namespace traces
} // namespace glider
