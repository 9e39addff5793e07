// End-to-end tests for the `svlc serve` daemon: an in-process Server on
// its own thread, real clients over the Unix socket. Covers the
// acceptance bar of the serve subsystem:
//   * a repeated verify of an unchanged job is a session hit — zero
//     re-elaboration, zero solver calls — and its rendered outputs are
//     byte-identical to an in-process `svlc check`,
//   * invalidate forces a re-verify,
//   * concurrent clients on different sessions never observe
//     interleaved frames,
//   * didChange pushes LSP-flavored diagnostics,
//   * verdicts reach the store so that, after a graceful shutdown, a
//     later cold `svlc batch --store` warm-skips, and
//   * --idle-timeout exits on its own.
#include "serve/client.hpp"
#include "serve/server.hpp"

#include "driver/driver.hpp"
#include "pipeline/compilation.hpp"
#include "support/fsutil.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#ifndef SVLC_HDL_DIR
#define SVLC_HDL_DIR ""
#endif

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using serve::Client;
using serve::RpcMessage;
using serve::ServeOptions;
using serve::Server;

const char* kSecureSrc = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

const char* kRejectedSrc = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

std::string unique_socket(const char* tag) {
    static std::atomic<int> counter{0};
    return (fs::temp_directory_path() /
            ("svlc_serve_test_" + std::to_string(::getpid()) + "_" + tag +
             "_" + std::to_string(counter++) + ".sock"))
        .string();
}

/// Server on a background thread; stopped and joined on destruction.
struct TestServer {
    Server server;
    std::thread thread;

    explicit TestServer(ServeOptions opts) : server(std::move(opts)) {}
    ~TestServer() { stop(); }

    bool start() {
        std::string error;
        if (!server.start(error)) {
            ADD_FAILURE() << "server start: " << error;
            return false;
        }
        thread = std::thread([this] { server.run(); });
        return true;
    }
    void stop() {
        server.request_stop();
        if (thread.joinable())
            thread.join();
    }
};

ServeOptions test_options(const std::string& socket) {
    ServeOptions opts;
    opts.socket_path = socket;
    opts.install_signal_handlers = false;
    return opts;
}

JsonValue call_ok(Client& client, const std::string& method,
                  const JsonValue& params,
                  std::vector<RpcMessage>* notifications = nullptr) {
    RpcMessage response;
    std::string error;
    EXPECT_TRUE(client.call(method, params, response, error, notifications))
        << method << ": " << error;
    EXPECT_TRUE(response.has_result)
        << method << " errored: " << response.error_message;
    return response.result;
}

JsonValue verify_params(const std::string& name, const std::string& source) {
    JsonValue params = JsonValue::object();
    params.set("name", JsonValue(name));
    params.set("source", JsonValue(source));
    return params;
}

TEST(Serve, WarmHitIsByteIdenticalToInProcessCheck) {
    std::string file = std::string(SVLC_HDL_DIR) + "/shared_counter.svlc";
    std::string source;
    ASSERT_TRUE(read_file(file, source));

    TestServer ts(test_options(unique_socket("warm")));
    ASSERT_TRUE(ts.start());

    // The in-process reference: exactly what `svlc check <file>` renders.
    pipeline::Compilation comp;
    comp.load_text(source, file);
    const check::CheckResult* res = comp.check();
    ASSERT_NE(res, nullptr);
    std::string want_report = pipeline::check_report_json(comp, *res, file);
    std::string want_diags = comp.render_diagnostics();

    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    JsonValue first = call_ok(*client, "verify", verify_params(file, source));
    EXPECT_EQ(first.get_string("status"), "secure");
    EXPECT_FALSE(first.get_bool("cached"));
    EXPECT_EQ(first.get_string("report"), want_report);
    EXPECT_EQ(first.get_string("diagnostics"), want_diags);
    // v2 results carry no rendered `svlc check` text.
    EXPECT_EQ(first.find("human"), nullptr);
    EXPECT_EQ(first.find("stats_line"), nullptr);

    JsonValue before = call_ok(*client, "status", JsonValue::object());
    EXPECT_EQ(before.get_string("schema"), "svlc-serve/v2");

    // Second verify: session hit, identical bytes.
    JsonValue second =
        call_ok(*client, "verify", verify_params(file, source));
    EXPECT_TRUE(second.get_bool("cached"));
    EXPECT_EQ(second.get_string("report"), want_report);
    EXPECT_EQ(second.get_string("diagnostics"), want_diags);
    EXPECT_EQ(second.find("human"), nullptr);
    EXPECT_EQ(second.find("stats_line"), nullptr);
    EXPECT_EQ(second.get_string("fingerprint"),
              first.get_string("fingerprint"));

    // Zero pipeline and zero solver work on the hit: the verify counter
    // did not move and the entailment cache saw no queries at all.
    JsonValue after = call_ok(*client, "status", JsonValue::object());
    EXPECT_EQ(after.find("stats")->get_uint("verifies"),
              before.find("stats")->get_uint("verifies"));
    EXPECT_EQ(after.find("stats")->get_uint("session_hits"),
              before.find("stats")->get_uint("session_hits") + 1);
    EXPECT_EQ(after.find("cache")->get_uint("hits"),
              before.find("cache")->get_uint("hits"));
    EXPECT_EQ(after.find("cache")->get_uint("misses"),
              before.find("cache")->get_uint("misses"));
}

TEST(Serve, InvalidateForcesReverify) {
    TestServer ts(test_options(unique_socket("inval")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    JsonValue params = verify_params("buf.svlc", kSecureSrc);
    EXPECT_FALSE(call_ok(*client, "verify", params).get_bool("cached"));
    EXPECT_TRUE(call_ok(*client, "verify", params).get_bool("cached"));

    JsonValue inv = JsonValue::object();
    inv.set("name", JsonValue("buf.svlc"));
    EXPECT_EQ(call_ok(*client, "invalidate", inv).get_uint("dropped"), 1u);

    // Session gone: the next verify runs the pipeline again.
    EXPECT_FALSE(call_ok(*client, "verify", params).get_bool("cached"));
}

TEST(Serve, DidChangePushesDiagnostics) {
    TestServer ts(test_options(unique_socket("didchange")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    std::vector<RpcMessage> notes;
    JsonValue result = call_ok(*client, "didChange",
                               verify_params("edit.svlc", kRejectedSrc),
                               &notes);
    EXPECT_EQ(result.get_string("status"), "rejected");

    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].method, "svlc/publishDiagnostics");
    EXPECT_EQ(notes[0].params.get_string("name"), "edit.svlc");
    const JsonValue* diags = notes[0].params.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_GE(diags->size(), 1u);
    const JsonValue& d = diags->items()[0];
    EXPECT_EQ(d.find("severity")->int_val(), 1); // LSP Error
    EXPECT_FALSE(d.get_string("message").empty());
    // 0-based LSP positions within the buffer.
    const JsonValue* start = d.find("range")->find("start");
    ASSERT_NE(start, nullptr);
    EXPECT_GT(start->get_uint("line"), 0u);

    // An edit that changes bytes but no flow (comment prepend) re-verifies
    // and pushes the full diagnostic set again: publishDiagnostics
    // replaces the client's set, it never patches it.
    std::vector<RpcMessage> touch_notes;
    JsonValue touched = call_ok(
        *client, "didChange",
        verify_params("edit.svlc", "// touch\n" + std::string(kRejectedSrc)),
        &touch_notes);
    EXPECT_EQ(touched.get_string("status"), "rejected");
    EXPECT_FALSE(touched.get_bool("cached"));
    ASSERT_EQ(touch_notes.size(), 1u);
    EXPECT_EQ(touch_notes[0].params.find("diagnostics")->size(),
              diags->size());

    // An edit that fixes the flow re-verifies under the same session.
    std::vector<RpcMessage> notes2;
    JsonValue fixed = call_ok(*client, "didChange",
                              verify_params("edit.svlc", kSecureSrc),
                              &notes2);
    EXPECT_EQ(fixed.get_string("status"), "secure");
    EXPECT_FALSE(fixed.get_bool("cached"));
    ASSERT_EQ(notes2.size(), 1u);
    EXPECT_EQ(notes2[0].params.find("diagnostics")->size(), 0u);
}

TEST(Serve, ConcurrentClientsDoNotInterleaveFrames) {
    TestServer ts(test_options(unique_socket("conc")));
    ASSERT_TRUE(ts.start());

    // Two clients on two different sessions, hammering concurrently.
    // Interleaved frames would surface as parse failures or id
    // mismatches inside Client::call.
    auto worker = [&](const std::string& name, const char* src,
                      const std::string& want_status,
                      std::atomic<int>& failures) {
        std::string error;
        auto client = Client::connect(ts.server.socket_path(), error);
        if (!client) {
            ++failures;
            return;
        }
        for (int i = 0; i < 25; ++i) {
            RpcMessage response;
            std::vector<RpcMessage> notes;
            if (!client->call("verify", verify_params(name, src), response,
                              error, &notes) ||
                !response.has_result ||
                response.result.get_string("status") != want_status ||
                notes.size() != 1)
                ++failures;
        }
    };
    std::atomic<int> failures{0};
    std::thread a(worker, "a.svlc", kSecureSrc, "secure",
                  std::ref(failures));
    std::thread b(worker, "b.svlc", kRejectedSrc, "rejected",
                  std::ref(failures));
    a.join();
    b.join();
    EXPECT_EQ(failures.load(), 0);
}

TEST(Serve, SessionLruEviction) {
    ServeOptions opts = test_options(unique_socket("lru"));
    opts.max_sessions = 2;
    TestServer ts(std::move(opts));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    for (const char* name : {"one.svlc", "two.svlc", "three.svlc"})
        call_ok(*client, "verify", verify_params(name, kSecureSrc));
    // Oldest session evicted; re-verifying it is a miss, the newest two
    // are still hits.
    EXPECT_FALSE(call_ok(*client, "verify",
                         verify_params("one.svlc", kSecureSrc))
                     .get_bool("cached"));
    EXPECT_TRUE(call_ok(*client, "verify",
                        verify_params("three.svlc", kSecureSrc))
                    .get_bool("cached"));
}

TEST(Serve, ShutdownFlushesStoreForBatchWarmSkip) {
    std::string file = std::string(SVLC_HDL_DIR) + "/fig4_mode_switch.svlc";
    std::string source;
    ASSERT_TRUE(read_file(file, source));
    fs::path store =
        fs::temp_directory_path() /
        ("svlc_serve_test_store_" + std::to_string(::getpid()));
    fs::remove_all(store);

    {
        ServeOptions opts = test_options(unique_socket("flush"));
        opts.store_dir = store.string();
        TestServer ts(std::move(opts));
        ASSERT_TRUE(ts.start());
        std::string error;
        auto client = Client::connect(ts.server.socket_path(), error);
        ASSERT_TRUE(client.has_value()) << error;
        // The daemon writes the verdict under the same fingerprint a
        // batch job with this name computes.
        call_ok(*client, "verify", verify_params(file, source));
        // Graceful shutdown via the protocol.
        call_ok(*client, "shutdown", JsonValue::object());
        ts.thread.join();
        ts.thread = std::thread(); // already joined
    }

    // A cold batch over the same job warm-skips from the store.
    driver::DriverOptions dopts;
    dopts.store_dir = store.string();
    driver::JobSpec job;
    job.name = file;
    job.path = file;
    driver::VerificationDriver drv(dopts);
    driver::BatchReport report = drv.run({job});
    EXPECT_EQ(report.skipped_count(), 1u);
    EXPECT_EQ(report.results[0].status, driver::JobStatus::Secure);

    fs::remove_all(store);
}

TEST(Serve, IdleTimeoutExitsOnItsOwn) {
    ServeOptions opts = test_options(unique_socket("idle"));
    opts.idle_timeout_sec = 1;
    Server server(std::move(opts));
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    std::atomic<bool> done{false};
    std::thread t([&] {
        server.run();
        done = true;
    });
    for (int i = 0; i < 100 && !done; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_TRUE(done.load()) << "idle server did not exit";
    t.join();
    // Socket removed on the way out.
    EXPECT_FALSE(net::socket_alive(server.socket_path()));
}

TEST(Serve, SecondServerOnLiveSocketRefused) {
    std::string socket = unique_socket("second");
    TestServer ts(test_options(socket));
    ASSERT_TRUE(ts.start());

    Server other(test_options(socket));
    std::string error;
    EXPECT_FALSE(other.start(error));
    EXPECT_NE(error.find("already listening"), std::string::npos) << error;
    // The running server is unharmed.
    std::string connect_error;
    EXPECT_TRUE(Client::connect(socket, connect_error).has_value())
        << connect_error;
}

TEST(Serve, ProtocolErrors) {
    TestServer ts(test_options(unique_socket("errors")));
    ASSERT_TRUE(ts.start());
    std::string error;
    auto client = Client::connect(ts.server.socket_path(), error);
    ASSERT_TRUE(client.has_value()) << error;

    RpcMessage response;
    ASSERT_TRUE(client->call("no-such-method", JsonValue::object(),
                             response, error));
    EXPECT_TRUE(response.has_error);
    EXPECT_EQ(response.error_code, serve::kErrMethodNotFound);

    // verify without source or file → invalid params.
    ASSERT_TRUE(
        client->call("verify", JsonValue::object(), response, error));
    EXPECT_TRUE(response.has_error);
    EXPECT_EQ(response.error_code, serve::kErrInvalidParams);

    // An unknown solver backend → invalid params.
    JsonValue params = verify_params("a.svlc", "module m(); endmodule\n");
    JsonValue options = JsonValue::object();
    options.set("solver", JsonValue("prune"));
    params.set("options", std::move(options));
    ASSERT_TRUE(client->call("verify", params, response, error));
    EXPECT_TRUE(response.has_error);
    EXPECT_EQ(response.error_code, serve::kErrInvalidParams);
    EXPECT_NE(response.error_message.find("prune"), std::string::npos)
        << response.error_message;

    // The connection survives every error.
    JsonValue status = call_ok(*client, "status", JsonValue::object());
    EXPECT_EQ(status.get_string("schema"), "svlc-serve/v2");
}

} // namespace
} // namespace svlc::test
