// Span recorder for the traced run. Spans are opened by the benchmark
// around each call into a layer's public functions, kept in memory, and
// written at exit as Chrome trace-event JSON. Spans opened while another
// is open become its children; every span carries the id of the request
// (one design check, one RPC, one engine run) it belongs to.
#pragma once

#include "bench.hpp"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
    Tracer();

    /// Starts a new request; spans opened from now on carry its id.
    uint64_t new_request() { return ++request_; }

    /// RAII span. A null tracer makes it a no-op, so shared code paths
    /// take the same branch with tracing on or off.
    class Scope {
    public:
        Scope(Tracer* tr, const char* name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tr_;
        size_t index_ = 0;
    };

    /// Adds to a named counter (work counts measured at the boundary).
    void add(const std::string& counter, double v) { counters_[counter] += v; }
    [[nodiscard]] double counter(const std::string& name) const;
    /// Appends to a named sample list (per-item figures, for percentiles).
    void sample(const std::string& name, double v) {
        samples_[name].push_back(v);
    }
    [[nodiscard]] std::vector<double> samples(const std::string& name) const;

    /// Sum of the durations of every span called `name`.
    [[nodiscard]] double total_ms(const std::string& name) const;
    /// total_ms minus the time covered by those spans' children.
    [[nodiscard]] double self_ms(const std::string& name) const;
    [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
    [[nodiscard]] size_t span_count() const { return spans_.size(); }

    /// Chrome trace-event JSON (chrome://tracing, Perfetto).
    [[nodiscard]] std::string chrome_json() const;

private:
    struct Span {
        const char* name;
        uint64_t request;
        size_t parent; // index + 1; 0 = root
        double start_us;
        double dur_us;
    };
    [[nodiscard]] std::vector<double> child_us() const;

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
    std::map<std::string, double> counters_;
    std::map<std::string, std::vector<double>> samples_;
    uint64_t request_ = 0;
};

} // namespace perfbench
