#include "solver/entail_cache.hpp"

#include <cstdio>
#include <functional>

namespace svlc::solver {

using namespace hir;

// ---------------------------------------------------------------------------
// EntailCache
// ---------------------------------------------------------------------------

EntailCache::Stats EntailCache::Stats::since(const Stats& base) const {
    Stats d;
    d.hits = hits - base.hits;
    d.misses = misses - base.misses;
    d.inserts = inserts - base.inserts;
    d.evictions = evictions - base.evictions;
    d.entries = entries;
    return d;
}

EntailCache::EntailCache(size_t capacity)
    : per_shard_capacity_(capacity / kShards ? capacity / kShards : 1) {}

size_t EntailCache::shard_of(const std::string& key) {
    return std::hash<std::string>{}(key) % kShards;
}

std::optional<EntailCache::ProvenEntry>
EntailCache::lookup(const std::string& key) {
    Shard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it == shard.map.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

void EntailCache::insert(const std::string& key, ProvenEntry entry) {
    Shard& shard = shards_[shard_of(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(key, entry);
    if (!inserted)
        return; // first writer wins (identical payload anyway)
    shard.fifo.push_back(key);
    inserts_.fetch_add(1, std::memory_order_relaxed);
    while (shard.map.size() > per_shard_capacity_ && !shard.fifo.empty()) {
        shard.map.erase(shard.fifo.front());
        shard.fifo.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

EntailCache::Stats EntailCache::stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.inserts = inserts_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(
            const_cast<std::mutex&>(shard.mu));
        s.entries += shard.map.size();
    }
    return s;
}

void EntailCache::clear() {
    for (Shard& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.map.clear();
        shard.fifo.clear();
    }
}

// ---------------------------------------------------------------------------
// Policy fingerprint
// ---------------------------------------------------------------------------

std::string policy_fingerprint(const SecurityPolicy& policy) {
    std::string out;
    out.reserve(256);
    const Lattice& lat = policy.lattice();
    out += "lat[";
    for (LevelId i = 0; i < lat.size(); ++i) {
        out += lat.name(i);
        out += ';';
    }
    out += '|';
    // Full ⊑ relation, one bit per ordered pair.
    for (LevelId a = 0; a < lat.size(); ++a)
        for (LevelId b = 0; b < lat.size(); ++b)
            out += lat.flows(a, b) ? '1' : '0';
    out += "]fn[";
    char buf[32];
    for (FuncId f = 0; f < policy.function_count(); ++f) {
        const LabelFunction& fn = policy.function(f);
        out += fn.name();
        out += '(';
        for (uint32_t w : fn.arg_widths()) {
            std::snprintf(buf, sizeof buf, "%u,", w);
            out += buf;
        }
        std::snprintf(buf, sizeof buf, ")=%u{", fn.default_level());
        out += buf;
        for (const auto& e : fn.entries()) {
            for (uint64_t a : e.args) {
                std::snprintf(buf, sizeof buf, "%llx,",
                              static_cast<unsigned long long>(a));
                out += buf;
            }
            std::snprintf(buf, sizeof buf, "->%u;", e.level);
            out += buf;
        }
        out += '}';
    }
    out += ']';
    return out;
}

// ---------------------------------------------------------------------------
// CacheKeyBuilder
// ---------------------------------------------------------------------------

CacheKeyBuilder::CacheKeyBuilder(const Design& design,
                                 const std::string& prefix)
    : design_(design) {
    out_.reserve(prefix.size() + 512);
    out_ += prefix;
    out_ += '\n';
}

uint32_t CacheKeyBuilder::canon(NetId net) {
    auto [it, inserted] =
        ids_.emplace(net, static_cast<uint32_t>(order_.size()));
    if (inserted)
        order_.push_back(net);
    return it->second;
}

void CacheKeyBuilder::put_expr(const Expr& e) {
    char buf[48];
    switch (e.kind) {
    case ExprKind::Const:
        std::snprintf(buf, sizeof buf, "#%u:%llx", e.width,
                      static_cast<unsigned long long>(e.value.value()));
        out_ += buf;
        return;
    case ExprKind::NetRef:
        std::snprintf(buf, sizeof buf, "n%u%s", canon(e.net),
                      e.primed ? "'" : "");
        out_ += buf;
        return;
    case ExprKind::ArrayRead:
        std::snprintf(buf, sizeof buf, "(idx n%u%s ", canon(e.net),
                      e.primed ? "'" : "");
        out_ += buf;
        put_expr(*e.index);
        out_ += ')';
        return;
    case ExprKind::Slice:
        std::snprintf(buf, sizeof buf, "(sl %u:%u ", e.msb, e.lsb);
        out_ += buf;
        put_expr(*e.a);
        out_ += ')';
        return;
    case ExprKind::Unary:
        std::snprintf(buf, sizeof buf, "(u%d:%u ",
                      static_cast<int>(e.un_op), e.width);
        out_ += buf;
        put_expr(*e.a);
        out_ += ')';
        return;
    case ExprKind::Binary:
        std::snprintf(buf, sizeof buf, "(b%d:%u ",
                      static_cast<int>(e.bin_op), e.width);
        out_ += buf;
        put_expr(*e.a);
        out_ += ' ';
        put_expr(*e.b);
        out_ += ')';
        return;
    case ExprKind::Cond:
        out_ += "(? ";
        put_expr(*e.a);
        out_ += ' ';
        put_expr(*e.b);
        out_ += ' ';
        put_expr(*e.c);
        out_ += ')';
        return;
    case ExprKind::Concat:
        out_ += "(cat";
        for (const auto& p : e.parts) {
            out_ += ' ';
            put_expr(*p);
        }
        out_ += ')';
        return;
    case ExprKind::Downgrade:
        // Facts are evaluated for their *value*; a downgrade is the
        // identity on its operand, so the declared label is irrelevant
        // here. The kind tag is kept for conservatism.
        std::snprintf(buf, sizeof buf, "(dg%d ",
                      static_cast<int>(e.dg_kind));
        out_ += buf;
        put_expr(*e.a);
        out_ += ')';
        return;
    }
}

void CacheKeyBuilder::add_label(char tag, const SolverLabel& label) {
    char buf[48];
    out_ += tag;
    out_ += '[';
    for (const auto& atom : label.atoms) {
        if (atom.kind == SolverAtom::Kind::Level) {
            std::snprintf(buf, sizeof buf, "l%u;", atom.level);
            out_ += buf;
        } else {
            std::snprintf(buf, sizeof buf, "f%u(", atom.func);
            out_ += buf;
            for (const auto& arg : atom.args) {
                std::snprintf(buf, sizeof buf, "n%u%s,", canon(arg.net),
                              arg.primed ? "'" : "");
                out_ += buf;
            }
            out_ += ");";
        }
    }
    out_ += ']';
}

void CacheKeyBuilder::add_fact(const Expr& fact) {
    out_ += "F:";
    put_expr(fact);
    out_ += '\n';
}

std::string CacheKeyBuilder::finish() {
    // Declaration section: the decision procedure's behaviour depends only
    // on each variable's width and scalar/array-ness (enumerability), so
    // those pin down the canonical variables completely.
    char buf[64];
    out_ += "D:";
    for (uint32_t i = 0; i < order_.size(); ++i) {
        const Net& net = design_.net(order_[i]);
        std::snprintf(buf, sizeof buf, "v%u:w%u:a%llu;", i, net.width,
                      static_cast<unsigned long long>(net.array_size));
        out_ += buf;
    }
    return std::move(out_);
}

} // namespace svlc::solver
