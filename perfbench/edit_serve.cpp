// The serve flow: an in-process serve::Server on a socket in the run's
// scratch directory with a fresh store each round, driven by one client
// in a closed loop (the next request goes out when the last answer is
// in) through a seeded edit script. Every answer's verdict is checked
// against the known answer and its report against the in-process
// pipeline::check_report_json of the same text.
#include "corpus.hpp"
#include "trace.hpp"

#include "driver/driver.hpp"
#include "incr/fingerprint.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "solver/entail_cache.hpp"

#include <filesystem>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

using namespace svlc;
namespace fs = std::filesystem;

/// A Server on its own thread; stopped (store flushed) and joined on
/// destruction.
class Host {
public:
    explicit Host(serve::ServeOptions opts) : server_(std::move(opts)) {}
    ~Host() { stop(); }
    Host(const Host&) = delete;
    Host& operator=(const Host&) = delete;

    bool start(std::string& error) {
        if (!server_.start(error))
            return false;
        thread_ = std::thread([this] { server_.run(); });
        return true;
    }
    void stop() {
        server_.request_stop();
        if (thread_.joinable())
            thread_.join();
    }

private:
    serve::Server server_;
    std::thread thread_;
};

const char* rpc_span(EditKind k) {
    switch (k) {
    case EditKind::Open:
        return "serve.rpc.open";
    case EditKind::Hit:
        return "serve.rpc.hit";
    case EditKind::Trivia:
        return "serve.rpc.trivia";
    case EditKind::Flip:
        return "serve.rpc.flip";
    }
    return "serve.rpc";
}

std::pair<double, double> tree_size(const fs::path& dir) {
    double files = 0;
    double bytes = 0;
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec))
        if (it->is_regular_file(ec)) {
            files += 1;
            bytes += static_cast<double>(it->file_size(ec));
        }
    return {files, bytes};
}

class ServeFlow final : public Flow {
public:
    ServeFlow(Scale scale, uint64_t seed, std::string work_dir)
        : scale_(scale), seed_(seed), work_dir_(std::move(work_dir)) {}

    void setup() override {
        designs_ = edit_designs(scale_);
        script_ = edit_script(designs_, seed_);
        open_ms_.assign(designs_.size(), {});
        edit_ms_.clear();
    }

    void round(Tracer* tr, Tally& tally) override {
        fs::path dir = fs::path(work_dir_) / ("serve" + std::to_string(++rounds_));
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir, ec);
        serve::ServeOptions opts;
        opts.socket_path = (dir / "s.sock").string();
        // The probe runs storeless: it stands in for the serve layer on
        // workloads that bypass incr, and store I/O is the noisiest cost
        // on a shared disk.
        if (scale_ == Scale::Full)
            opts.store_dir = (dir / "store").string();
        opts.install_signal_handlers = false;
        opts.default_check = check_options();
        std::string error;
        {
            Host host(opts);
            if (!host.start(error)) {
                tally.op(false, "serve start: " + error);
                return;
            }
            std::optional<serve::Client> client =
                serve::Client::connect(opts.socket_path, error);
            if (!client) {
                tally.op(false, "serve connect: " + error);
                return;
            }
            run_script(*client, tr, tally);
            if (tr)
                count_status(*client, *tr);
        }
        if (tr) {
            auto [files, bytes] = tree_size(dir / "store");
            tr->add("incr.store_files", files);
            tr->add("incr.store_bytes", bytes);
            tr->add("serve.rounds", 1);
        }
        fs::remove_all(dir, ec);
    }

    void traced_probes(Tracer& tr, Tally& tally) override {
        // Per design: a trivia edit re-solved with no store, and a cold
        // verify with and without a store (the store's write cost).
        for (size_t i = 0; i < designs_.size(); ++i) {
            const EditDesign& d = designs_[i];
            bool expect = edit_secure(d, false);
            tr.new_request();
            probe_verify(tr, tally, "incr.resolve", d, edit_text(d, false, 1),
                         nullptr, expect);
            fs::path sdir = fs::path(work_dir_) / ("probe_store" + std::to_string(i));
            std::error_code ec;
            fs::remove_all(sdir, ec);
            incr::StoreOptions sopts;
            sopts.dir = sdir.string();
            incr::ArtifactStore store(sopts);
            std::string error;
            if (!store.open(error)) {
                tally.op(false, "probe store: " + error);
                continue;
            }
            probe_verify(tr, tally, "incr.cold_store", d, d.source, &store,
                         expect);
            probe_verify(tr, tally, "incr.cold_no_store", d, d.source,
                         nullptr, expect);
            fs::remove_all(sdir, ec);
        }
        tr.add("incr.probe_designs", static_cast<double>(designs_.size()));
    }

    void end_to_end(Metrics& out) const override {
        double open_ms = 0;
        for (const std::vector<double>& samples : open_ms_)
            open_ms += median(samples);
        out.set("open_s", open_ms / 1000.0);
        out.set("edit_p50_ms", percentile(edit_ms_, 50));
        out.set("edit_p90_ms", percentile(edit_ms_, 90));
    }

private:
    /// Runs the script once against a fresh server.
    void run_script(serve::Client& client, Tracer* tr, Tally& tally) {
        std::vector<bool> flipped(designs_.size(), false);
        std::vector<unsigned> trivia(designs_.size(), 0);
        for (const EditOp& op : script_) {
            const EditDesign& d = designs_[op.design];
            if (op.kind == EditKind::Trivia)
                trivia[op.design] = trivia[op.design] % 4 + 1;
            if (op.kind == EditKind::Flip)
                flipped[op.design] = !flipped[op.design];
            std::string text =
                edit_text(d, flipped[op.design], trivia[op.design]);
            std::string what = std::string(edit_kind_name(op.kind)) + " " + d.name;

            JsonValue params = JsonValue::object();
            params.set("name", JsonValue(d.name));
            params.set("source", JsonValue(text));
            if (!d.top.empty())
                params.set("top", JsonValue(d.top));
            JsonValue options = JsonValue::object();
            options.set("solver", JsonValue(solver::backend_id(kBackend)));
            params.set("options", std::move(options));

            if (tr) {
                tr->new_request();
                Tracer::Scope s(tr, "incr.fingerprint");
                incr::job_fingerprint(d.name, text, d.top, check_options());
            }
            serve::RpcMessage resp;
            std::string error;
            bool ok = false;
            const double ms = timed_ms([&] {
                Tracer::Scope s(tr, rpc_span(op.kind));
                ok = client.call("verify", params, resp, error);
            });
            std::string status =
                ok && resp.has_result ? resp.result.get_string("status") : "";
            bool ran = status == "secure" || status == "rejected";
            tally.op(ran, what + (error.empty() ? "" : ": " + error));
            if (!ran)
                continue;
            tally.verdict((status == "secure") ==
                              edit_secure(d, flipped[op.design]),
                          what + " verdict");
            tally.verdict(resp.result.get_string("report") ==
                              reference_report(d, text),
                          what + " report");
            if (op.kind == EditKind::Open)
                open_ms_[op.design].push_back(ms);
            else if (op.kind != EditKind::Hit)
                edit_ms_.push_back(ms);
            const JsonValue* cached = resp.result.find("cached");
            if (tr && !(cached && cached->bool_val())) {
                tr->add("incr.replayed", static_cast<double>(resp.result.get_uint(
                                             "obligations_replayed")));
                tr->add("incr.solved", static_cast<double>(resp.result.get_uint(
                                           "obligations_solved")));
            }
        }
    }

    void count_status(serve::Client& client, Tracer& tr) {
        serve::RpcMessage resp;
        std::string error;
        if (!client.call("status", JsonValue::object(), resp, error) ||
            !resp.has_result)
            return;
        if (const JsonValue* c = resp.result.find("stats")) {
            tr.add("serve.session_hits",
                   static_cast<double>(c->get_uint("session_hits")));
            tr.add("serve.verifies", static_cast<double>(c->get_uint("verifies")));
        }
    }

    /// The in-process report for `text`, memoized (texts recur across
    /// rounds). Computed outside every timed region.
    const std::string& reference_report(const EditDesign& d,
                                        const std::string& text) {
        auto it = reports_.find(text);
        if (it != reports_.end())
            return it->second;
        pipeline::CompilationOptions opts;
        opts.top = d.top;
        opts.check = check_options();
        pipeline::Compilation comp(std::move(opts));
        comp.load_text(text, d.name);
        const check::CheckResult* res = comp.check();
        std::string report =
            res ? pipeline::check_report_json(comp, *res, d.name) : "";
        return reports_.emplace(text, std::move(report)).first->second;
    }

    void probe_verify(Tracer& tr, Tally& tally, const char* span,
                      const EditDesign& d, const std::string& text,
                      incr::ArtifactStore* store, bool expect_secure) {
        pipeline::CompilationOptions opts;
        opts.check = check_options();
        pipeline::Compilation comp(std::move(opts));
        solver::EntailCache cache;
        driver::JobSpec spec;
        spec.name = d.name;
        spec.top = d.top;
        driver::JobResult res;
        {
            Tracer::Scope s(&tr, span);
            res = driver::verify_text(comp, spec, text, 0, &cache, store);
        }
        bool ran = res.status == driver::JobStatus::Secure ||
                   res.status == driver::JobStatus::Rejected;
        tally.op(ran, std::string(span) + " " + d.name);
        if (ran)
            tally.verdict((res.status == driver::JobStatus::Secure) ==
                              expect_secure,
                          std::string(span) + " " + d.name);
    }

    Scale scale_;
    uint64_t seed_;
    std::string work_dir_;
    std::vector<EditDesign> designs_;
    std::vector<EditOp> script_;
    std::vector<std::vector<double>> open_ms_; // per design

    std::vector<double> edit_ms_;
    std::unordered_map<std::string, std::string> reports_;
    uint64_t rounds_ = 0;
};

} // namespace

std::unique_ptr<Flow> make_serve_flow(Scale scale, uint64_t seed,
                                      const std::string& work_dir) {
    return std::make_unique<ServeFlow>(scale, seed, work_dir);
}

} // namespace perfbench
