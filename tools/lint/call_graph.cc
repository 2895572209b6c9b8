/**
 * @file
 * Function index + transitive reachability for hotpath-transitive.
 *
 * Conservatism rules (also in DESIGN.md):
 *  - Calls resolve by name: a qualified call must match the
 *    callee's immediate class/namespace qualifier; an unqualified
 *    or member call matches every indexed function with that name,
 *    and the union of all matches is traversed (overloads are never
 *    disambiguated).
 *  - Unresolved free calls are findings unless the callee is on the
 *    known-safe list (libc/math/builtin-width casts), is a macro
 *    (ALL_CAPS — the tokenizer cannot expand it), or is qualified
 *    with std:: (safe except the known-allocating std set, which is
 *    an allocation effect at the call site).
 *  - Unresolved *member* calls are treated as safe: repo-type
 *    methods resolve by name, and the std-container residue has its
 *    allocating/growing methods caught as direct effects
 *    (allocationAt) and its blocking ones in the lock set.
 *  - Cold functions (reset, exportMetrics, clear..., ctors, dtors)
 *    are safe traversal boundaries: calling one from hot code is
 *    assumed to be setup-phase by the same convention hotpath-alloc
 *    uses.
 *  - allow(hotpath-alloc) / allow(hotpath-transitive) hatches clear
 *    the effect at its site, so an annotated allocation does not
 *    propagate to callers; a hatch on a function's signature line
 *    exempts it as a root.
 */

#include "lint/call_graph.hh"

#include <cstddef>
#include <map>
#include <optional>

namespace glider {
namespace lint {

namespace {

struct Effect
{
    std::string what;
    int line = 0;
};

struct CallSite
{
    std::string name; //!< last component
    std::string qual; //!< immediate qualifier ("" if none)
    int line = 0;
    bool member = false;
};

struct FnNode
{
    std::string name;
    std::string outer;
    const FileCtx *ctx = nullptr;
    int line = 0;
    bool cold = false;
    bool hot = false;
    bool suppressed = false;
    std::optional<Effect> alloc, thrw, lock;
    std::vector<CallSite> calls;
    std::set<std::string> lambdas; //!< local `auto f = [...]` names
};

/** Callees that never allocate, throw, or block. */
bool
knownSafeCall(const std::string &name)
{
    // Compiler intrinsics and reserved implementation names: the
    // tokenizer cannot see into them, and none of them touch the
    // user heap, throw, or take user-space locks. "_mm*" covers SSE
    // / AVX, "v...q_..." the NEON 128-bit intrinsics, "__*" the
    // builtins (__builtin_cpu_supports, __attribute__ spellings).
    if (startsWith(name, "__") || startsWith(name, "_mm"))
        return true;
    if (name[0] == 'v') {
        if (name.find("q_") != std::string::npos)
            return true;
        // NEON intrinsics end in an element-type suffix: vmull_s16,
        // vget_low_s16, vaddv_u32, ...
        for (const char *sfx :
             {"_s8", "_u8", "_s16", "_u16", "_s32", "_u32", "_s64",
              "_u64", "_f32", "_f64"})
            if (endsWith(name, sfx))
                return true;
    }
    static const std::set<std::string> safe = {
        // libc / builtins
        "memcpy", "memmove", "memset", "memcmp", "strlen", "strcmp",
        "strncmp", "strchr", "snprintf", "abs", "labs", "llabs",
        // syscall entry points: kernel time, not user-heap time
        "mmap", "munmap", "madvise", "msync", "sysconf", "ftruncate",
        "fsync", "pread", "pwrite", "read", "write", "open", "close",
        "lseek", "fstat",
        // <chrono> clock reads (steady_clock::now is noexcept and
        // reads the clock without touching the heap)
        "now",
        // <algorithm>/<utility> via ADL or using
        "min", "max", "clamp", "move", "swap", "forward", "get",
        "exchange", "distance", "advance", "fill", "fill_n", "copy",
        "copy_n", "lower_bound", "upper_bound", "sort", "find",
        // math
        "log", "log2", "exp", "sqrt", "pow", "floor", "ceil",
        "round", "lround", "fabs", "isnan", "isinf", "isfinite",
        // width casts spelled as function-style constructions
        "size_t", "ptrdiff_t", "uintptr_t", "intptr_t", "int8_t",
        "int16_t", "int32_t", "int64_t", "uint8_t", "uint16_t",
        "uint32_t", "uint64_t", "int", "unsigned", "long", "short",
        "char", "bool", "float", "double"};
    return safe.count(name) != 0;
}

/** std:: callees that allocate (effect at the call site). */
bool
stdAllocatingCall(const std::string &name)
{
    static const std::set<std::string> alloc = {
        "to_string", "make_unique", "make_shared", "getline", "stoi",
        "stol", "stoll", "stoul", "stoull", "stod", "stof", "string",
        "vector", "map", "unordered_map", "set", "unordered_set",
        "deque", "list", "function", "stringstream",
        "ostringstream", "istringstream"};
    return alloc.count(name) != 0;
}

bool
isCallKeyword(const std::string &s)
{
    static const std::set<std::string> kw = {
        "if", "for", "while", "switch", "catch", "return", "sizeof",
        "alignof", "alignas", "decltype", "noexcept",
        "static_assert", "throw", "new", "delete", "assert",
        "defined", "case", "goto", "co_return", "co_await",
        "co_yield", "__attribute__"};
    return kw.count(s) != 0;
}

/** Blocking primitives: RAII lock types and blocking member calls. */
bool
isLockIdent(const std::string &s)
{
    static const std::set<std::string> locks = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        "condition_variable", "condition_variable_any",
        "pthread_mutex_lock", "LockGuard"};
    return locks.count(s) != 0;
}

std::string
qualifiedNameEndingAt(const std::vector<Token> &toks, std::size_t i)
{
    std::string name = toks[i].text;
    std::size_t j = i;
    while (j >= 2 && toks[j - 1].text == "::"
           && toks[j - 2].kind == Token::Kind::Ident) {
        name = toks[j - 2].text + "::" + name;
        j -= 2;
    }
    return name;
}

/**
 * Collect every function defined in @p ctx into @p nodes: direct
 * effects (allocation, throw, lock) and call sites.
 */
void
indexFile(const FileCtx &ctx, std::vector<FnNode> &nodes)
{
    ScopeTracker scopes(ctx.toks);
    std::vector<std::size_t> open; // node index per open function
    const bool hot = isHotPathFile(ctx.rel);
    for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
        scopes.step(i);
        int depth = scopes.functionDepth();
        while (static_cast<int>(open.size()) > depth)
            open.pop_back();
        if (static_cast<int>(open.size()) < depth) {
            const ScopeTracker::Scope *fn =
                scopes.enclosingFunction();
            FnNode node;
            node.name = fn->name;
            node.outer = fn->outer;
            node.ctx = &ctx;
            node.line = fn->line;
            node.cold = fn->cold;
            node.hot = hot;
            // A hatch on the signature line, or in the comment
            // block above the definition (the return type sits on
            // fn->line - 1 in this repo's style), exempts the whole
            // function.
            node.suppressed =
                allowed(ctx, "hotpath-transitive", fn->line)
                || allowed(ctx, "hotpath-transitive", fn->line - 1);
            nodes.push_back(node);
            open.push_back(nodes.size() - 1);
        }
        if (open.empty())
            continue;
        FnNode &cur = nodes[open.back()];
        const Token &t = ctx.toks[i];
        if (t.kind != Token::Kind::Ident)
            continue;
        auto hatched = [&](int line) {
            return allowed(ctx, "hotpath-alloc", line)
                || allowed(ctx, "hotpath-transitive", line);
        };
        std::string alloc_what = allocationAt(ctx, i);
        if (!alloc_what.empty()) {
            if (!cur.alloc && !hatched(t.line))
                cur.alloc = Effect{alloc_what, t.line};
            continue; // an allocation ident is not also a call site
        }
        if (t.text == "throw") {
            if (!cur.thrw && !hatched(t.line))
                cur.thrw = Effect{"throw", t.line};
            continue;
        }
        bool next_is_call = i + 1 < ctx.toks.size()
            && ctx.toks[i + 1].text == "(";
        bool is_member = i > 0
            && (ctx.toks[i - 1].text == "."
                || ctx.toks[i - 1].text == "->");
        if (isLockIdent(t.text)
            || (is_member && next_is_call
                && (t.text == "lock" || t.text == "wait"))) {
            if (!cur.lock && !hatched(t.line))
                cur.lock = Effect{t.text, t.line};
            continue;
        }
        // A local lambda's body already accrues to this node (its
        // braces are plain blocks inside the function), so a call
        // through the lambda's name adds no new reachability.
        if (i + 2 < ctx.toks.size() && ctx.toks[i + 1].text == "="
            && ctx.toks[i + 2].text == "[")
            cur.lambdas.insert(t.text);
        if (!next_is_call || isCallKeyword(t.text)
            || cur.lambdas.count(t.text))
            continue;
        if (is_member) {
            cur.calls.push_back({t.text, "", t.line, true});
            continue;
        }
        // Declaration heuristic: `Type name(args)` — the preceding
        // ident (or template '>' / '*' / '&') marks token i as a
        // variable name, and direct-initialization runs the type's
        // constructor, which is cold by convention. Skip it.
        if (i > 0) {
            const Token &p = ctx.toks[i - 1];
            bool decl = (p.kind == Token::Kind::Ident
                         && !isCallKeyword(p.text)
                         && p.text != "else" && p.text != "operator")
                || p.text == ">" || p.text == "*" || p.text == "&";
            if (decl)
                continue;
        }
        std::string qual = qualifiedNameEndingAt(ctx.toks, i);
        std::string immediate;
        std::size_t pos = qual.rfind("::");
        if (pos != std::string::npos) {
            std::string head = qual.substr(0, pos);
            std::size_t p2 = head.rfind("::");
            immediate = p2 == std::string::npos
                ? head
                : head.substr(p2 + 2);
        }
        cur.calls.push_back({t.text, immediate, t.line, false});
    }
}

class Reachability
{
  public:
    explicit Reachability(const std::vector<FnNode> &nodes)
        : nodes_(nodes), verdicts_(nodes.size())
    {
        for (std::size_t n = 0; n < nodes.size(); ++n)
            by_name_.emplace(nodes[n].name, n);
    }

    /** Violation chain for node @p n, or "" when it is clean. */
    const std::string &
    verdict(std::size_t n)
    {
        Memo &m = verdicts_[n];
        if (m.state == Memo::State::Done)
            return m.chain;
        if (m.state == Memo::State::InProgress)
            return kClean; // cycle: optimistic, matches fixpoint
        m.state = Memo::State::InProgress;
        m.chain = compute(n);
        m.state = Memo::State::Done;
        return verdicts_[n].chain;
    }

  private:
    struct Memo
    {
        enum class State { Unvisited, InProgress, Done };
        State state = State::Unvisited;
        std::string chain;
    };

    static std::string
    at(const FnNode &n, int line)
    {
        return n.ctx->rel + ":" + std::to_string(line);
    }

    std::string
    compute(std::size_t idx)
    {
        const FnNode &n = nodes_[idx];
        if (n.suppressed)
            return "";
        if (n.alloc)
            return "allocates (" + n.alloc->what + ") at "
                + at(n, n.alloc->line);
        if (n.thrw)
            return "throws at " + at(n, n.thrw->line);
        if (n.lock)
            return "blocks (" + n.lock->what + ") at "
                + at(n, n.lock->line);
        for (const CallSite &c : n.calls) {
            if (c.qual == "std") {
                if (stdAllocatingCall(c.name))
                    return "calls allocating std::" + c.name + " at "
                        + at(n, c.line);
                continue;
            }
            auto [lo, hi] = by_name_.equal_range(c.name);
            if (lo == hi) {
                if (c.member || knownSafeCall(c.name)
                    || looksLikeMacroName(c.name)
                    || allowed(*n.ctx, "hotpath-transitive", c.line))
                    continue;
                if (stdAllocatingCall(c.name))
                    return "calls allocating " + c.name + " at "
                        + at(n, c.line);
                return "calls unresolved '" + c.name + "' at "
                    + at(n, c.line)
                    + " (unknown callees are hot-path findings)";
            }
            if (allowed(*n.ctx, "hotpath-transitive", c.line))
                continue;
            // A member call carries no receiver type, so it resolves
            // only when a single class defines that method name.
            // Ubiquitous accessor names (size, empty, ...) defined
            // by many unrelated classes would otherwise union the
            // whole repo into one graph; they stay boundaries, and
            // their direct effects are caught when the owning class
            // is itself hot.
            std::string owner;
            if (c.member) {
                bool unique = true;
                for (auto it = lo; it != hi && unique; ++it) {
                    const FnNode &cn = nodes_[it->second];
                    if (cn.outer.empty())
                        unique = false; // shadowed by a free fn
                    else if (owner.empty())
                        owner = cn.outer;
                    else if (cn.outer != owner)
                        unique = false;
                }
                if (!unique)
                    continue;
            }
            for (auto it = lo; it != hi; ++it) {
                std::size_t callee = it->second;
                const FnNode &cn = nodes_[callee];
                if (cn.cold)
                    continue;
                if (!c.qual.empty()) {
                    if (cn.outer != c.qual)
                        continue;
                } else if (!c.member && !cn.outer.empty()
                           && cn.outer != n.outer) {
                    // Unqualified non-member call: same-class method
                    // or free function, never another class's.
                    continue;
                }
                const std::string &v = verdict(callee);
                if (!v.empty())
                    return "calls " + c.name + " ("
                        + at(cn, cn.line) + ") which " + v;
            }
        }
        return "";
    }

    const std::vector<FnNode> &nodes_;
    std::vector<Memo> verdicts_;
    std::multimap<std::string, std::size_t> by_name_;
    const std::string kClean;
};

} // namespace

void
ruleHotpathTransitive(const std::vector<FileCtx> &files,
                      std::vector<Finding> &out)
{
    std::vector<FnNode> nodes;
    for (const FileCtx &ctx : files)
        indexFile(ctx, nodes);
    Reachability reach(nodes);
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const FnNode &node = nodes[n];
        if (!node.hot || node.cold || node.suppressed)
            continue;
        const std::string &v = reach.verdict(n);
        if (v.empty())
            continue;
        report(out, *node.ctx, "hotpath-transitive", node.line,
               "hot function '" + node.name + "' " + v
                   + " — the hot path must stay allocation-, throw-, "
                     "and lock-free transitively");
    }
}

} // namespace lint
} // namespace glider
