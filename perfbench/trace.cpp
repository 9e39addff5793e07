#include "trace.hpp"

#include "support/json.hpp"

#include <algorithm>
#include <cstring>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

Tracer::Scope::Scope(Tracer* tr, const char* name) : tr_(tr) {
    if (!tr_)
        return;
    index_ = tr_->spans_.size();
    size_t parent = tr_->open_.empty() ? 0 : tr_->open_.back() + 1;
    double start = std::chrono::duration<double, std::micro>(Clock::now() -
                                                             tr_->origin_)
                       .count();
    tr_->spans_.push_back({name, tr_->request_, parent, start, 0.0});
    tr_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
    if (!tr_)
        return;
    Span& s = tr_->spans_[index_];
    s.dur_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         tr_->origin_)
                   .count() -
               s.start_us;
    tr_->open_.pop_back();
}

double Tracer::counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double> Tracer::samples(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<double> Tracer::child_us() const {
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent)
            covered[s.parent - 1] += s.dur_us;
    return covered;
}

double Tracer::total_ms(const std::string& name) const {
    double us = 0;
    for (const Span& s : spans_)
        if (name == s.name)
            us += s.dur_us;
    return us / 1000.0;
}

double Tracer::self_ms(const std::string& name) const {
    std::vector<double> covered = child_us();
    double us = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            us += spans_[i].dur_us - covered[i];
    return us / 1000.0;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (name == s.name)
            out.push_back(s.dur_us / 1000.0);
    return out;
}

std::string Tracer::chrome_json() const {
    std::vector<double> covered = child_us();
    svlc::JsonWriter w;
    w.begin_object();
    w.kv("displayTimeUnit", "ms");
    w.key("traceEvents").begin_array();
    double last_us = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        w.begin_object();
        w.kv("name", s.name);
        w.kv("cat", std::string(s.name, std::strcspn(s.name, ".")));
        w.kv("ph", "X");
        w.kv("ts", s.start_us, 1);
        w.kv("dur", s.dur_us, 1);
        w.kv("pid", 1);
        w.kv("tid", 1);
        w.key("args").begin_object();
        w.kv("request", s.request);
        w.kv("self_us", s.dur_us - covered[i], 1);
        w.end_object();
        w.end_object();
        last_us = std::max(last_us, s.start_us + s.dur_us);
    }
    for (const auto& [name, value] : counters_) {
        w.begin_object();
        w.kv("name", name);
        w.kv("ph", "C");
        w.kv("ts", last_us, 1);
        w.kv("pid", 1);
        w.key("args").begin_object();
        w.kv("value", value, 3);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str() + "\n";
}

} // namespace perfbench
