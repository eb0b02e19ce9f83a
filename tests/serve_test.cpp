// gatest_serve tests: protocol parsing/validation (no sockets), response
// writing, scheduler determinism under time slicing, durability (job
// journal, crash/restart recovery, torture cycles under fault injection),
// overload protection (bounded queue, quotas, watcher shedding), client
// backoff, and socket-level end-to-end passes through the server.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "gatest/test_generator.h"
#include "serve/client.h"
#include "serve/http.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "sim/logic.h"
#include "telemetry/json.h"
#include "util/fault_inject.h"
#include "util/net.h"

namespace gatest::serve {
namespace {

// ---- request parsing --------------------------------------------------------

ProtocolError parse_error(const std::string& line) {
  Request req;
  ProtocolError err;
  EXPECT_FALSE(parse_request(line, req, err)) << line;
  return err;
}

TEST(Protocol, RejectsMalformedJson) {
  EXPECT_EQ(parse_error("{not json").code, "bad-json");
  EXPECT_EQ(parse_error("\"cmd\"").code, "not-object");
  EXPECT_EQ(parse_error("[1,2]").code, "not-object");
  EXPECT_EQ(parse_error("{}").code, "missing-field");
  EXPECT_EQ(parse_error("{\"cmd\":42}").code, "bad-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"frobnicate\"}").code, "unknown-command");
}

TEST(Protocol, RejectsOversizedFrame) {
  std::string line = "{\"cmd\":\"status\",\"pad\":\"";
  line.append(kMaxRequestBytes, 'x');
  line += "\"}";
  EXPECT_EQ(parse_error(line).code, "oversized");
}

TEST(Protocol, RequiresIdWhereItMatters) {
  EXPECT_EQ(parse_error("{\"cmd\":\"cancel\"}").code, "missing-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"result\"}").code, "missing-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"cancel\",\"id\":-1}").code, "bad-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"cancel\",\"id\":1.5}").code, "bad-field");

  Request req;
  ProtocolError err;
  // status and watch work with or without an id.
  ASSERT_TRUE(parse_request("{\"cmd\":\"status\"}", req, err));
  EXPECT_FALSE(req.has_id);
  ASSERT_TRUE(parse_request("{\"cmd\":\"status\",\"id\":7}", req, err));
  EXPECT_TRUE(req.has_id);
  EXPECT_EQ(req.id, 7u);
}

TEST(Protocol, SubmitNeedsExactlyOneCircuitSource) {
  EXPECT_EQ(parse_error("{\"cmd\":\"submit\"}").code, "missing-field");
  EXPECT_EQ(
      parse_error(
          "{\"cmd\":\"submit\",\"profile\":\"s27\",\"bench\":\"INPUT(a)\"}")
          .code,
      "missing-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"submit\",\"profile\":\"\"}").code,
            "bad-field");
  EXPECT_EQ(parse_error("{\"cmd\":\"submit\",\"profile\":17}").code,
            "bad-field");
}

TEST(Protocol, SubmitMapsConfigAndBudget) {
  Request req;
  ProtocolError err;
  ASSERT_TRUE(parse_request(
      "{\"cmd\":\"submit\",\"profile\":\"s298\",\"name\":\"n1\","
      "\"config\":{\"seed\":42,\"gap\":0.5,\"selection\":\"tournament\","
      "\"crossover\":\"uniform\",\"coding\":\"nonbinary\","
      "\"fitness_cache\":true},"
      "\"budget\":{\"max_evals\":500,\"max_vectors\":9}}",
      req, err))
      << err.code << ": " << err.message;
  EXPECT_EQ(req.cmd, Command::Submit);
  EXPECT_EQ(req.submit.profile, "s298");
  EXPECT_EQ(req.submit.name, "n1");
  EXPECT_EQ(req.submit.config.seed, 42u);
  EXPECT_DOUBLE_EQ(req.submit.config.generation_gap, 0.5);
  EXPECT_EQ(req.submit.config.selection,
            SelectionScheme::TournamentNoReplacement);
  EXPECT_EQ(req.submit.config.crossover, CrossoverScheme::Uniform);
  EXPECT_EQ(req.submit.config.sequence_coding, Coding::NonBinary);
  EXPECT_TRUE(req.submit.config.fitness_cache);
  EXPECT_EQ(req.submit.budget.max_evaluations, 500u);
  EXPECT_EQ(req.submit.budget.max_vectors, 9u);
}

TEST(Protocol, SubmitRejectsBadKnobs) {
  const std::string prefix = "{\"cmd\":\"submit\",\"profile\":\"s27\",";
  EXPECT_EQ(parse_error(prefix + "\"config\":{\"speling\":1}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"config\":{\"gap\":0}}").code, "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"config\":{\"gap\":1.5}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"config\":{\"threads\":0}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"config\":{\"selection\":\"best\"}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"budget\":{\"max_evals\":0}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "\"budget\":{\"fuel\":3}}").code,
            "bad-field");
  // Wall-clock budgets are rejected for served jobs: slice segments restart
  // the clock, so the budget would not be cumulative.
  EXPECT_EQ(parse_error(prefix + "\"budget\":{\"time_limit\":5}}").code,
            "bad-field");
}

TEST(Protocol, ParserNeverThrowsOnHostileInput) {
  const std::vector<std::string> hostile = {
      "",
      "null",
      "true",
      "3.14",
      "\"\\u0000\"",
      "{\"cmd\":null}",
      "{\"cmd\":\"submit\",\"profile\":\"s27\",\"config\":[1]}",
      "{\"cmd\":\"submit\",\"profile\":\"s27\",\"budget\":\"lots\"}",
      "{\"cmd\":\"submit\",\"bench\":true}",
      std::string(64, '{'),
      "{\"cmd\":\"status\",\"id\":1e99}",
  };
  for (const std::string& line : hostile) {
    Request req;
    ProtocolError err;
    EXPECT_NO_THROW({
      const bool ok = parse_request(line, req, err);
      if (!ok) {
        EXPECT_FALSE(err.code.empty()) << line;
      }
    }) << line;
  }
}

// ---- response writing -------------------------------------------------------

TEST(JsonWriter, BuildsNestedObjectsWithEscaping) {
  JsonWriter w;
  w.begin_object()
      .key("ok").value(true)
      .key("msg").value("line1\nline2 \"quoted\"")
      .key("nums").begin_array().value(std::uint64_t{1}).value(2.5)
          .value(std::int64_t{-3}).end_array()
      .key("inner").begin_object().key("k").value("v").end_object()
  .end_object();
  const std::string line = w.take();
  EXPECT_EQ(line,
            "{\"ok\":true,\"msg\":\"line1\\nline2 \\\"quoted\\\"\","
            "\"nums\":[1,2.5,-3],\"inner\":{\"k\":\"v\"}}\n");
  // Round-trips through the JSON reader.
  EXPECT_NO_THROW(telemetry::parse_json(line));
}

TEST(JsonWriter, ErrorLineIsParsable) {
  const std::string line = error_line({"bad-json", "oops at byte 3"});
  const telemetry::JsonValue v = telemetry::parse_json(line);
  ASSERT_TRUE(v.find("error"));
  EXPECT_EQ(v.find("error")->string_or("code", ""), "bad-json");
}

// ---- scheduler determinism --------------------------------------------------

std::vector<std::string> direct_run(const std::string& profile,
                                    std::uint64_t seed,
                                    std::size_t max_evals) {
  const Circuit c = benchmark_circuit(profile);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = seed;
  GaTestGenerator gen(c, faults, cfg);
  RunControl ctrl;
  ctrl.budget.max_evaluations = max_evals;
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();
  std::vector<std::string> out;
  for (const TestVector& v : r.test_set) out.push_back(logic_string(v));
  return out;
}

void wait_all_terminal(JobManager& jm, std::size_t expect) {
  for (int i = 0; i < 6000; ++i) {
    std::size_t terminal = 0;
    for (const JobSnapshot& s : jm.snapshot_all())
      if (s.state == JobState::Done || s.state == JobState::Cancelled ||
          s.state == JobState::Failed)
        ++terminal;
    if (terminal == expect) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  FAIL() << "jobs did not reach a terminal state in time";
}

class SliceIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(SliceIdentity, SlicedJobsMatchUninterruptedRuns) {
  // Aggressive 5 ms slices guarantee preemption; the final test set must
  // still match an uninterrupted in-process run bit for bit.
  const unsigned workers = GetParam();
  const std::vector<std::string> profiles = {"s27", "s298"};
  const std::size_t max_evals = 4000;

  ServeConfig cfg;
  cfg.workers = workers;
  cfg.slice_seconds = 0.005;
  JobManager jm(cfg);
  jm.start();

  std::vector<std::uint64_t> ids;
  ProtocolError err;
  for (const std::string& profile : profiles) {
    SubmitRequest req;
    req.profile = profile;
    req.name = profile;
    req.config.seed = 11;
    req.budget.max_evaluations = max_evals;
    const std::uint64_t id = jm.submit(req, err);
    ASSERT_NE(id, 0u) << err.message;
    ids.push_back(id);
  }
  wait_all_terminal(jm, ids.size());

  for (std::size_t i = 0; i < ids.size(); ++i) {
    JobSnapshot snap;
    std::vector<std::string> vectors;
    ASSERT_TRUE(jm.result(ids[i], snap, vectors, err)) << err.message;
    EXPECT_EQ(snap.state, JobState::Done);
    EXPECT_EQ(vectors, direct_run(profiles[i], 11, max_evals))
        << profiles[i] << " with " << workers << " workers, " << snap.slices
        << " slices";
  }
  jm.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Workers, SliceIdentity, ::testing::Values(1u, 4u));

// ---- scheduler lifecycle ----------------------------------------------------

TEST(Scheduler, CancelQueuedAndRunningJobs) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.02;
  JobManager jm(cfg);
  jm.start();

  ProtocolError err;
  // An effectively unbounded job occupies the single worker...
  SubmitRequest big;
  big.profile = "s298";
  big.budget.max_evaluations = 100000000;
  const std::uint64_t running = jm.submit(big, err);
  ASSERT_NE(running, 0u);
  // ...so this one stays queued and cancels instantly.
  const std::uint64_t queued = jm.submit(big, err);
  ASSERT_NE(queued, 0u);

  EXPECT_TRUE(jm.cancel(queued, err));
  EXPECT_TRUE(jm.cancel(running, err));
  wait_all_terminal(jm, 2);
  JobSnapshot snap;
  ASSERT_TRUE(jm.snapshot(queued, snap, err));
  EXPECT_EQ(snap.state, JobState::Cancelled);
  ASSERT_TRUE(jm.snapshot(running, snap, err));
  EXPECT_EQ(snap.state, JobState::Cancelled);

  EXPECT_FALSE(jm.cancel(999, err));
  EXPECT_EQ(err.code, "unknown-job");
  std::vector<std::string> vectors;
  EXPECT_FALSE(jm.result(999, snap, vectors, err));
  EXPECT_EQ(err.code, "unknown-job");
  jm.shutdown();
}

TEST(Scheduler, ResultBeforeTerminalIsNotDone) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.02;
  JobManager jm(cfg);
  jm.start();
  ProtocolError err;
  SubmitRequest big;
  big.profile = "s298";
  big.budget.max_evaluations = 100000000;
  const std::uint64_t id = jm.submit(big, err);
  ASSERT_NE(id, 0u);
  JobSnapshot snap;
  std::vector<std::string> vectors;
  EXPECT_FALSE(jm.result(id, snap, vectors, err));
  EXPECT_EQ(err.code, "not-done");
  jm.cancel(id, err);
  jm.shutdown();
}

TEST(Scheduler, WatchStreamsLifecycleAndGeneratorEvents) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.0;  // run to completion
  JobManager jm(cfg);
  jm.start();
  ProtocolError err;

  auto all = jm.watch(false, 0, err);
  ASSERT_TRUE(all);

  SubmitRequest req;
  req.profile = "s27";
  req.budget.max_evaluations = 300;
  const std::uint64_t id = jm.submit(req, err);
  ASSERT_NE(id, 0u);
  wait_all_terminal(jm, 1);

  bool saw_submit = false, saw_done = false;
  std::string line;
  while (all->pop(line, 0.2)) {
    const telemetry::JsonValue v = telemetry::parse_json(line);
    EXPECT_EQ(static_cast<std::uint64_t>(v.number_or("job", 0)), id);
    const std::string type = v.string_or("type", "");
    if (type == "job_submit") saw_submit = true;
    if (type == "job_done") {
      saw_done = true;
      EXPECT_EQ(v.string_or("state", ""), "done");
      break;
    }
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_done);
  jm.unsubscribe(all);

  // Watching an unknown job fails; watching a terminal one yields a closed
  // stream.
  EXPECT_FALSE(jm.watch(true, 999, err));
  EXPECT_EQ(err.code, "unknown-job");
  auto done_watch = jm.watch(true, id, err);
  ASSERT_TRUE(done_watch);
  EXPECT_FALSE(done_watch->pop(line, 0.05));
  EXPECT_TRUE(done_watch->closed_and_drained());
  jm.shutdown();
}

TEST(Scheduler, MetricsReportServerGauges) {
  ServeConfig cfg;
  cfg.workers = 2;
  JobManager jm(cfg);
  jm.start();
  ProtocolError err;
  SubmitRequest req;
  req.profile = "s27";
  req.budget.max_evaluations = 200;
  ASSERT_NE(jm.submit(req, err), 0u);
  wait_all_terminal(jm, 1);
  const telemetry::JsonValue m = telemetry::parse_json(jm.metrics_json());
  ASSERT_TRUE(m.find("counters"));
  EXPECT_EQ(m.find("counters")->number_or("serve.jobs_submitted", 0), 1.0);
  EXPECT_EQ(m.find("counters")->number_or("serve.jobs_done", 0), 1.0);
  ASSERT_TRUE(m.find("gauges"));
  EXPECT_EQ(m.find("gauges")->number_or("serve.workers", 0), 2.0);
  jm.shutdown();
}

// ---- socket end-to-end ------------------------------------------------------

TEST(Server, EndToEndOverTcp) {
  ServerConfig cfg;
  cfg.serve.workers = 1;
  cfg.serve.slice_seconds = 0.02;
  Server server(cfg);
  server.start();
  ASSERT_GT(server.port(), 0);
  std::thread runner([&server] { server.run(); });

  TcpConnection conn = tcp_connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.valid());
  auto rpc = [&conn](const std::string& req) {
    EXPECT_TRUE(conn.write_all(req + "\n"));
    std::string line;
    EXPECT_EQ(conn.read_line(line, kMaxRequestBytes),
              TcpConnection::ReadStatus::Ok);
    return telemetry::parse_json(line);
  };

  // Malformed input gets a structured error, not a dropped connection.
  EXPECT_EQ(rpc("{oops").find("error")->string_or("code", ""), "bad-json");

  const telemetry::JsonValue sub = rpc(
      "{\"cmd\":\"submit\",\"profile\":\"s27\","
      "\"config\":{\"seed\":5},\"budget\":{\"max_evals\":300}}");
  ASSERT_TRUE(sub.find("ok") && sub.find("ok")->boolean);
  const auto id = static_cast<std::uint64_t>(sub.number_or("id", 0));
  ASSERT_GT(id, 0u);

  std::string state;
  for (int i = 0; i < 2000 && state != "done"; ++i) {
    const telemetry::JsonValue st =
        rpc("{\"cmd\":\"status\",\"id\":" + std::to_string(id) + "}");
    state = st.find("job") ? st.find("job")->string_or("state", "") : "";
    if (state != "done")
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, "done");

  const telemetry::JsonValue res =
      rpc("{\"cmd\":\"result\",\"id\":" + std::to_string(id) + "}");
  ASSERT_TRUE(res.find("ok") && res.find("ok")->boolean);
  ASSERT_TRUE(res.find("vectors"));
  EXPECT_FALSE(res.find("vectors")->array.empty());

  const telemetry::JsonValue met = rpc("{\"cmd\":\"metrics\"}");
  ASSERT_TRUE(met.find("metrics"));
  EXPECT_GE(met.find("metrics")->find("counters")->number_or(
                "serve.requests", 0),
            4.0);

  const telemetry::JsonValue bye = rpc("{\"cmd\":\"shutdown\"}");
  EXPECT_TRUE(bye.find("ok") && bye.find("ok")->boolean);
  runner.join();
}

// ---- hostile-input hardening ------------------------------------------------

TEST(Protocol, DeeplyNestedDocumentsRejectedStructurally) {
  // A recursive-descent parser without a depth cap would exhaust its call
  // stack here; the cap turns it into an ordinary structured error.
  EXPECT_FALSE(parse_error(std::string(5000, '[')).code.empty());
  EXPECT_FALSE(parse_error(std::string(5000, '{')).code.empty());
  std::string nested_submit = "{\"cmd\":\"submit\",\"config\":";
  nested_submit.append(500, '[');
  EXPECT_FALSE(parse_error(nested_submit).code.empty());
}

TEST(Protocol, TruncatedMultibyteFrameAtCapBoundary) {
  // A frame cut mid-UTF-8-sequence exactly at the 1 MiB cap must produce a
  // structured error, never a throw or a read past the buffer.
  std::string line = "{\"cmd\":\"submit\",\"name\":\"";
  while (line.size() + 3 <= kMaxRequestBytes) line += "\xE2\x82\xAC";  // '€'
  while (line.size() < kMaxRequestBytes) line += '\xE2';  // truncated seq
  ASSERT_EQ(line.size(), kMaxRequestBytes);
  Request req;
  ProtocolError err;
  EXPECT_NO_THROW(EXPECT_FALSE(parse_request(line, req, err)));
  EXPECT_FALSE(err.code.empty());

  line += '\xE2';  // one byte past the cap: rejected before parsing
  EXPECT_EQ(parse_error(line).code, "oversized");
}

TEST(Protocol, SubmitJsonRoundTripsThroughParser) {
  SubmitRequest req;
  req.name = "round trip \"quoted\"";
  req.profile = "s344";
  req.config.seed = 77;
  req.config.generation_gap = 0.5;
  req.config.selection = SelectionScheme::TournamentNoReplacement;
  req.config.crossover = CrossoverScheme::Uniform;
  req.config.sequence_coding = Coding::NonBinary;
  req.config.fitness_cache = true;
  req.budget.max_evaluations = 1234;
  req.budget.max_vectors = 99;

  Request parsed;
  ProtocolError err;
  ASSERT_TRUE(parse_request(submit_json(req), parsed, err))
      << err.code << ": " << err.message;
  EXPECT_EQ(parsed.cmd, Command::Submit);
  EXPECT_EQ(parsed.submit.name, req.name);
  EXPECT_EQ(parsed.submit.profile, req.profile);
  EXPECT_EQ(parsed.submit.config.seed, req.config.seed);
  EXPECT_DOUBLE_EQ(parsed.submit.config.generation_gap,
                   req.config.generation_gap);
  EXPECT_EQ(parsed.submit.config.selection, req.config.selection);
  EXPECT_EQ(parsed.submit.config.crossover, req.config.crossover);
  EXPECT_EQ(parsed.submit.config.sequence_coding, req.config.sequence_coding);
  EXPECT_EQ(parsed.submit.config.fitness_cache, req.config.fitness_cache);
  EXPECT_EQ(parsed.submit.budget.max_evaluations,
            req.budget.max_evaluations);
  EXPECT_EQ(parsed.submit.budget.max_vectors, req.budget.max_vectors);
}

TEST(Protocol, RetiredEngineKeysKeepTheirChecks) {
  // "fsim_backend" and "lane_compaction" are no longer written, but older
  // journal records carry them: accepted values parse (and are ignored),
  // malformed ones are still structured bad-field errors.
  const std::string prefix =
      "{\"cmd\":\"submit\",\"profile\":\"s27\",\"config\":";
  EXPECT_EQ(parse_error(prefix + "{\"fsim_backend\":\"warp\"}}").code,
            "bad-field");
  EXPECT_EQ(parse_error(prefix + "{\"fsim_backend\":7}}").code, "bad-field");
  EXPECT_EQ(parse_error(prefix + "{\"lane_compaction\":\"yes\"}}").code,
            "bad-field");
  Request req;
  ProtocolError err;
  ASSERT_TRUE(parse_request(prefix + "{\"fsim_backend\":\"levelized\","
                                     "\"lane_compaction\":true}}",
                            req, err))
      << err.code << ": " << err.message;
  EXPECT_EQ(req.submit.config.fsim_backend, "event");
  EXPECT_EQ(submit_json(SubmitRequest{}).find("fsim_backend"),
            std::string::npos);
  EXPECT_EQ(submit_json(SubmitRequest{}).find("lane_compaction"),
            std::string::npos);
}

// ---- job journal ------------------------------------------------------------

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root.
fs::path test_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("gatest_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

JournalRecord sample_record(std::uint64_t id) {
  JournalRecord rec;
  rec.id = id;
  SubmitRequest req;
  req.profile = "s27";
  req.config.seed = 5;
  req.budget.max_evaluations = 100;
  rec.submit_line = submit_json(req);
  rec.state = "done";
  rec.slices = 3;
  rec.evaluations = 100;
  rec.coverage = 0.5;
  rec.error = "multi\nline \\ with \x01 control";
  rec.vectors = {"0101", "11XX"};
  return rec;
}

TEST(Journal, SerializeParseRoundTrip) {
  const JournalRecord rec = sample_record(4);
  const JournalRecord back = Journal::parse(Journal::serialize(rec));
  EXPECT_EQ(back.submit_line, rec.submit_line);
  EXPECT_EQ(back.state, rec.state);
  EXPECT_EQ(back.slices, rec.slices);
  EXPECT_EQ(back.evaluations, rec.evaluations);
  EXPECT_DOUBLE_EQ(back.coverage, rec.coverage);
  EXPECT_EQ(back.error, rec.error);
  EXPECT_EQ(back.vectors, rec.vectors);

  JournalRecord queued = sample_record(5);
  queued.state = "queued";
  queued.vectors.clear();
  queued.error.clear();
  queued.checkpoint_text = "gatest-checkpoint v1\nnot validated here\n";
  const JournalRecord qback = Journal::parse(Journal::serialize(queued));
  EXPECT_EQ(qback.checkpoint_text, queued.checkpoint_text);
  EXPECT_TRUE(qback.error.empty());
}

TEST(Journal, ParseRejectsTornAndHostilePayloads) {
  const std::string good = Journal::serialize(sample_record(1));
  EXPECT_THROW(Journal::parse(""), std::runtime_error);
  EXPECT_THROW(Journal::parse(good.substr(0, good.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(Journal::parse("state done\n"), std::runtime_error);
  EXPECT_THROW(Journal::parse(good + "trailing"), std::runtime_error);
  // A flipped vector-count field must fail cleanly, not drive a huge
  // allocation.
  std::string bloated = good;
  const auto pos = bloated.find("vectors 2");
  ASSERT_NE(pos, std::string::npos);
  bloated.replace(pos, 9, "vectors 999999999999");
  EXPECT_THROW(Journal::parse(bloated), std::runtime_error);
}

TEST(Journal, WriteScanRoundTripAndRemove) {
  const fs::path dir = test_dir("journal_rw");
  Journal j;
  j.open(dir.string());
  j.write(sample_record(2));
  j.write(sample_record(1));

  const Journal::ScanResult scan = j.scan();
  EXPECT_EQ(scan.corrupt, 0u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].id, 1u);  // ascending id order
  EXPECT_EQ(scan.records[1].id, 2u);
  EXPECT_EQ(scan.records[0].vectors, sample_record(1).vectors);

  j.remove(1);
  EXPECT_EQ(j.scan().records.size(), 1u);
}

TEST(Journal, ScanQuarantinesCorruptRecords) {
  const fs::path dir = test_dir("journal_corrupt");
  Journal j;
  j.open(dir.string());
  j.write(sample_record(1));  // stays valid
  j.write(sample_record(2));  // gets a flipped byte
  j.write(sample_record(3));  // gets truncated
  j.write(sample_record(4));  // version-skewed header

  {  // flip one payload byte in record 2
    const fs::path p = dir / "job-2.rec";
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(p)) - 10);
    f.put('#');
  }
  fs::resize_file(dir / "job-3.rec", fs::file_size(dir / "job-3.rec") / 2);
  {  // rewrite record 4 with an unknown version
    std::ifstream in(dir / "job-4.rec", std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    text.replace(text.find("v1"), 2, "v9");
    std::ofstream out(dir / "job-4.rec", std::ios::binary | std::ios::trunc);
    out << text;
  }
  // A stale tmp from a crash between write and rename is swept.
  { std::ofstream(dir / "job-9.rec.tmp") << "half a record"; }

  const Journal::ScanResult scan = j.scan();
  EXPECT_EQ(scan.corrupt, 3u);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].id, 1u);
  EXPECT_TRUE(fs::exists(dir / "job-2.rec.corrupt"));
  EXPECT_FALSE(fs::exists(dir / "job-2.rec"));
  EXPECT_FALSE(fs::exists(dir / "job-9.rec.tmp"));
  // Quarantined files do not reappear on the next scan.
  const Journal::ScanResult again = j.scan();
  EXPECT_EQ(again.corrupt, 0u);
  EXPECT_EQ(again.records.size(), 1u);
}

// ---- crash/restart recovery -------------------------------------------------

/// Copy every completed record file — the moral equivalent of the disk
/// image an instant after kill -9 (per-record atomicity comes from the
/// write-tmp-then-rename protocol, so each copied file is internally
/// consistent even while the source manager keeps running).
void snapshot_state_dir(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  for (const auto& e : fs::directory_iterator(from))
    if (e.path().extension() == ".rec")
      fs::copy_file(e.path(), to / e.path().filename(),
                    fs::copy_options::overwrite_existing);
}

class RecoveryIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(RecoveryIdentity, RestartServesBitIdenticalResults) {
  const unsigned workers = GetParam();
  const fs::path dir =
      test_dir("recovery_" + std::to_string(workers) + "w");
  const fs::path crash_img = dir.string() + "_crash";
  const std::size_t max_evals = 4000;
  const std::vector<std::string> profiles = {"s27", "s298"};

  ServeConfig cfg;
  cfg.workers = workers;
  cfg.slice_seconds = 0.005;
  cfg.state_dir = dir.string();

  std::vector<std::uint64_t> ids;
  {
    JobManager jm(cfg);
    jm.start();
    ProtocolError err;
    for (const std::string& profile : profiles) {
      SubmitRequest req;
      req.profile = profile;
      req.config.seed = 11;
      req.budget.max_evaluations = max_evals;
      const std::uint64_t id = jm.submit(req, err);
      ASSERT_NE(id, 0u) << err.message;
      ids.push_back(id);
    }
    // Let a few slices land, snapshot the live dir as a crash image, then
    // shut down mid-flight (work-preserving: queued records stay on disk).
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    snapshot_state_dir(dir, crash_img);
    jm.shutdown();
  }

  // Both the gracefully-stopped dir and the mid-run crash image must
  // resume to the exact bits of an uninterrupted run.
  for (const fs::path& state : {dir, crash_img}) {
    ServeConfig rcfg = cfg;
    rcfg.state_dir = state.string();
    JobManager jm(rcfg);
    jm.start();
    ASSERT_EQ(jm.snapshot_all().size(), ids.size())
        << "recovery from " << state << " lost a job";
    wait_all_terminal(jm, ids.size());
    ProtocolError err;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      JobSnapshot snap;
      std::vector<std::string> vectors;
      ASSERT_TRUE(jm.result(ids[i], snap, vectors, err)) << err.message;
      EXPECT_EQ(snap.state, JobState::Done);
      EXPECT_EQ(vectors, direct_run(profiles[i], 11, max_evals))
          << profiles[i] << " recovered from " << state << " with "
          << workers << " workers";
    }
    jm.shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, RecoveryIdentity, ::testing::Values(1u, 4u));

TEST(Recovery, TerminalResultsSurviveRestart) {
  const fs::path dir = test_dir("recovery_terminal");
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.0;
  cfg.state_dir = dir.string();

  std::uint64_t id = 0;
  std::vector<std::string> first;
  {
    JobManager jm(cfg);
    jm.start();
    ProtocolError err;
    SubmitRequest req;
    req.profile = "s27";
    req.config.seed = 3;
    req.budget.max_evaluations = 300;
    id = jm.submit(req, err);
    ASSERT_NE(id, 0u);
    wait_all_terminal(jm, 1);
    JobSnapshot snap;
    ASSERT_TRUE(jm.result(id, snap, first, err));
    jm.shutdown();
  }
  {
    JobManager jm(cfg);
    jm.start();
    // The job is already terminal on disk: no re-run, result immediately
    // available, and the id space continues after it.
    JobSnapshot snap;
    std::vector<std::string> again;
    ProtocolError err;
    ASSERT_TRUE(jm.result(id, snap, again, err)) << err.message;
    EXPECT_EQ(snap.state, JobState::Done);
    EXPECT_EQ(again, first);
    SubmitRequest req;
    req.profile = "s27";
    req.budget.max_evaluations = 100;
    EXPECT_GT(jm.submit(req, err), id);
    jm.shutdown();
  }
}

TEST(Recovery, CorruptCheckpointRequeuesFromScratch) {
  const fs::path dir = test_dir("recovery_badcp");
  SubmitRequest req;
  req.profile = "s27";
  req.config.seed = 9;
  req.budget.max_evaluations = 600;

  // Handcraft queued records whose embedded checkpoints are garbage and
  // version-skewed: recovery must discard the checkpoint with a diagnostic
  // and rerun from scratch — never fail the job, never crash.
  Journal j;
  j.open(dir.string());
  JournalRecord r1;
  r1.id = 1;
  r1.submit_line = submit_json(req);
  r1.checkpoint_text = "complete garbage\n";
  j.write(r1);
  JournalRecord r2 = r1;
  r2.id = 2;
  r2.checkpoint_text = "gatest-checkpoint v999\ncircuit s27\n";
  j.write(r2);

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.0;
  cfg.state_dir = dir.string();
  JobManager jm(cfg);
  jm.start();
  wait_all_terminal(jm, 2);
  const std::vector<std::string> expected = direct_run("s27", 9, 600);
  ProtocolError err;
  for (std::uint64_t id : {1u, 2u}) {
    JobSnapshot snap;
    std::vector<std::string> vectors;
    ASSERT_TRUE(jm.result(id, snap, vectors, err)) << err.message;
    EXPECT_EQ(snap.state, JobState::Done);
    EXPECT_EQ(vectors, expected);
  }
  const telemetry::JsonValue m = telemetry::parse_json(jm.metrics_json());
  EXPECT_EQ(m.find("counters")->number_or("serve.checkpoints_discarded", 0),
            2.0);
  jm.shutdown();
}

TEST(Recovery, OlderRecordWithRetiredEngineKeysRecovers) {
  // A queued record exactly as an older daemon journalled it, with the
  // since-retired engine keys set to non-default values.  Recovery must
  // accept it and serve the bits of an uninterrupted default-engine run.
  const fs::path dir = test_dir("recovery_retired_keys");
  Journal j;
  j.open(dir.string());
  JournalRecord rec;
  rec.id = 1;
  rec.submit_line =
      "{\"cmd\":\"submit\",\"profile\":\"s27\",\"config\":{\"seed\":9,"
      "\"sample\":0,\"threads\":1,\"gap\":1,\"selection\":\"tournament\","
      "\"crossover\":\"uniform\",\"coding\":\"binary\","
      "\"fitness_cache\":false,\"lane_compaction\":true,"
      "\"prune_untestable\":false,\"prune_proven\":false,"
      "\"fsim_backend\":\"levelized\"},\"budget\":{\"max_evals\":600}}";
  j.write(rec);

  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.0;
  cfg.state_dir = dir.string();
  JobManager jm(cfg);
  jm.start();
  ASSERT_EQ(jm.snapshot_all().size(), 1u) << "recovery dropped the record";
  wait_all_terminal(jm, 1);
  JobSnapshot snap;
  std::vector<std::string> vectors;
  ProtocolError err;
  ASSERT_TRUE(jm.result(1, snap, vectors, err)) << err.message;
  EXPECT_EQ(snap.state, JobState::Done);
  EXPECT_EQ(vectors, direct_run("s27", 9, 600));
  jm.shutdown();
}

TEST(Recovery, JournalWriteFailureRejectsSubmitDurably) {
  const fs::path dir = test_dir("recovery_joufail");
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.state_dir = dir.string();
  JobManager jm(cfg);
  jm.start();

  FaultInjector inj;
  std::string ferr;
  ASSERT_TRUE(FaultInjector::parse("journal_write:every=1", 1, inj, ferr))
      << ferr;
  FaultInjector::set_global(&inj);

  SubmitRequest req;
  req.profile = "s27";
  req.budget.max_evaluations = 100;
  ProtocolError err;
  // Durable ack: if the record cannot be fsynced the submit is refused with
  // a retryable error — the server never acknowledges a job it could lose.
  EXPECT_EQ(jm.submit(req, err), 0u);
  EXPECT_EQ(err.code, "journal-error");
  EXPECT_GT(err.retry_after_ms, 0u);
  EXPECT_GE(inj.injected(), 1u);

  FaultInjector::set_global(nullptr);
  EXPECT_NE(jm.submit(req, err), 0u) << err.message;
  wait_all_terminal(jm, 1);
  jm.shutdown();
  EXPECT_EQ(jm.metrics().counter("serve.journal_write_failures").value(), 1u);
}

// ---- torture: crash/restart cycles under fault injection --------------------

TEST(Torture, CrashRestartCyclesLoseNoJobsAndServeExactBits) {
  constexpr int kCycles = 25;
  constexpr std::size_t kJobs = 6;
  constexpr std::size_t kMaxEvals = 1500;
  const fs::path base = test_dir("torture");

  // Deterministic write-side fault injection: journal writes, fsyncs, and
  // renames all fail intermittently.  Submit-time failures surface as
  // retryable rejections; slice-time failures silently degrade to an older
  // checkpoint — neither may ever lose an acknowledged job or change bits.
  FaultInjector inj;
  std::string ferr;
  ASSERT_TRUE(FaultInjector::parse(
      "journal_write:p=0.10,journal_fsync:p=0.08,journal_rename:p=0.08", 42,
      inj, ferr))
      << ferr;
  FaultInjector::set_global(&inj);

  ServeConfig cfg;
  cfg.workers = 2;
  cfg.slice_seconds = 0.005;

  fs::path cur = base / "d0";
  fs::create_directories(cur);
  std::vector<std::uint64_t> ids;
  std::size_t submitted = 0;

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    cfg.state_dir = cur.string();
    JobManager jm(cfg);
    jm.start();
    ProtocolError err;
    while (submitted < kJobs &&
           submitted < 2 * (static_cast<std::size_t>(cycle) + 1)) {
      SubmitRequest req;
      req.profile = "s27";
      req.name = "t";
      req.name += std::to_string(submitted);
      req.config.seed = 100 + submitted;
      req.budget.max_evaluations = kMaxEvals;
      std::uint64_t id = 0;
      for (int attempt = 0; attempt < 200 && id == 0; ++attempt) {
        id = jm.submit(req, err);
        if (id == 0) {
          ASSERT_EQ(err.code, "journal-error") << err.message;
        }
      }
      ASSERT_NE(id, 0u) << "submit never accepted under fault injection";
      ids.push_back(id);
      ++submitted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    // "Crash": snapshot the live state dir mid-run and abandon this
    // manager; the next cycle boots from the frozen image.
    const fs::path next = base / ("d" + std::to_string(cycle + 1));
    snapshot_state_dir(cur, next);
    jm.shutdown();
    cur = next;
  }
  FaultInjector::set_global(nullptr);

  cfg.state_dir = cur.string();
  JobManager jm(cfg);
  jm.start();
  ASSERT_EQ(jm.snapshot_all().size(), kJobs)
      << "a job was lost across " << kCycles << " crash/restart cycles";
  wait_all_terminal(jm, kJobs);
  ProtocolError err;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    JobSnapshot snap;
    std::vector<std::string> vectors;
    ASSERT_TRUE(jm.result(ids[i], snap, vectors, err)) << err.message;
    EXPECT_EQ(snap.state, JobState::Done) << "job " << ids[i];
    EXPECT_EQ(vectors, direct_run("s27", 100 + i, kMaxEvals))
        << "job " << ids[i] << " served the wrong bits";
  }
  jm.shutdown();
}

// ---- overload protection ----------------------------------------------------

TEST(Overload, BoundedQueueShedsWatchersThenRejectsSubmits) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.1;
  cfg.max_queued_jobs = 1;
  cfg.retry_after_ms = 250;
  JobManager jm(cfg);
  jm.start();
  ProtocolError err;

  SubmitRequest big;
  big.profile = "s298";
  big.budget.max_evaluations = 100000000;

  const std::uint64_t running = jm.submit(big, err);
  ASSERT_NE(running, 0u);
  // Wait until the single worker picks it up so the queue is empty again.
  for (int i = 0; i < 1000; ++i) {
    JobSnapshot s;
    ASSERT_TRUE(jm.snapshot(running, s, err));
    if (s.state == JobState::Running) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Subscribe while there is still room; once the queue saturates this
  // stream becomes shedding fodder.
  auto watcher = jm.watch(false, 0, err);
  ASSERT_TRUE(watcher) << err.message;

  const std::uint64_t queued = jm.submit(big, err);
  ASSERT_NE(queued, 0u);

  // Queue is now at its cap: the next submit sheds the watcher, then is
  // refused with a structured, retryable error.
  EXPECT_EQ(jm.submit(big, err), 0u);
  EXPECT_EQ(err.code, "overloaded");
  EXPECT_EQ(err.retry_after_ms, 250u);
  std::string drained;
  while (watcher->pop(drained, 0.0)) {
  }
  EXPECT_TRUE(watcher->closed_and_drained());
  // New watch streams are refused while saturated.
  EXPECT_FALSE(jm.watch(false, 0, err));
  EXPECT_EQ(err.code, "overloaded");

  const telemetry::JsonValue m = telemetry::parse_json(jm.metrics_json());
  EXPECT_GE(m.find("counters")->number_or("serve.overload_rejections", 0),
            1.0);
  EXPECT_GE(m.find("counters")->number_or("serve.watchers_shed", 0), 1.0);

  // Draining the queue lifts the rejection.
  ASSERT_TRUE(jm.cancel(queued, err));
  EXPECT_NE(jm.submit(big, err), 0u) << err.message;
  jm.cancel(running, err);
  jm.shutdown();
}

TEST(Overload, PerClientQuotaBoundsUnfinishedJobs) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.1;
  cfg.max_jobs_per_client = 2;
  JobManager jm(cfg);
  jm.start();
  ProtocolError err;

  SubmitRequest big;
  big.profile = "s298";
  big.budget.max_evaluations = 100000000;

  const std::uint64_t a1 = jm.submit(big, err, /*client=*/7);
  const std::uint64_t a2 = jm.submit(big, err, 7);
  ASSERT_NE(a1, 0u);
  ASSERT_NE(a2, 0u);
  EXPECT_EQ(jm.submit(big, err, 7), 0u);
  EXPECT_EQ(err.code, "quota-exceeded");
  EXPECT_GT(err.retry_after_ms, 0u);
  // Other clients are unaffected, and client 0 (in-process) is exempt.
  EXPECT_NE(jm.submit(big, err, 8), 0u) << err.message;
  EXPECT_NE(jm.submit(big, err, 0), 0u) << err.message;

  // Finishing a job releases quota.
  ASSERT_TRUE(jm.cancel(a2, err));
  EXPECT_NE(jm.submit(big, err, 7), 0u) << err.message;

  for (const JobSnapshot& s : jm.snapshot_all()) jm.cancel(s.id, err);
  jm.shutdown();
}

// ---- client backoff ---------------------------------------------------------

TEST(Backoff, FullJitterHonorsHintAndCap) {
  BackoffPolicy p;
  p.base_ms = 100;
  p.cap_ms = 400;
  p.max_attempts = 5;
  Backoff b(p, /*seed=*/3);
  unsigned prev_window = 0;
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(b.can_retry());
    const unsigned d = b.next_delay_ms(/*server_hint_ms=*/1000);
    EXPECT_GE(d, 1000u);  // the server's floor is always honored
    EXPECT_LE(d, 1000u + 400u);  // and the jitter window is capped
    prev_window = d;
  }
  (void)prev_window;
  EXPECT_FALSE(b.can_retry());
  b.reset();
  EXPECT_TRUE(b.can_retry());

  // Same policy + seed = same schedule (torture runs are replayable).
  Backoff b1(p, 9), b2(p, 9);
  for (int k = 0; k < 5; ++k)
    EXPECT_EQ(b1.next_delay_ms(50), b2.next_delay_ms(50));
}

TEST(Backoff, RetryableErrorRecognizesBackpressureCodes) {
  unsigned hint = 123;
  EXPECT_TRUE(retryable_error(error_line({"overloaded", "full", 250}), hint));
  EXPECT_EQ(hint, 250u);
  EXPECT_TRUE(retryable_error(error_line({"quota-exceeded", "cap", 0}), hint));
  EXPECT_EQ(hint, 0u);
  EXPECT_TRUE(retryable_error(error_line({"journal-error", "disk", 80}), hint));
  EXPECT_FALSE(retryable_error(error_line({"bad-json", "oops"}), hint));
  EXPECT_FALSE(retryable_error(ok_line(), hint));
  EXPECT_FALSE(retryable_error("not json at all", hint));
  EXPECT_FALSE(retryable_error("", hint));
}

// ---- connection robustness --------------------------------------------------

TEST(Server, MidFrameDisconnectNeverKillsAWorker) {
  ServerConfig cfg;
  cfg.serve.workers = 1;
  cfg.serve.slice_seconds = 0.02;
  Server server(cfg);
  server.start();
  std::thread runner([&server] { server.run(); });

  // Client 1 dies mid-frame (bytes sent, no newline, abrupt close).
  {
    TcpConnection c1 = tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(c1.write_all("{\"cmd\":\"sta"));
  }
  // Client 2 submits a job and watches it, then vanishes while the server
  // is streaming events at it — the resulting dead-socket writes must hit
  // the error path (EPIPE), not raise SIGPIPE and kill the process.
  std::uint64_t id = 0;
  {
    TcpConnection c2 = tcp_connect("127.0.0.1", server.port());
    ASSERT_TRUE(c2.write_all(
        "{\"cmd\":\"submit\",\"profile\":\"s298\","
        "\"budget\":{\"max_evals\":20000}}\n"));
    std::string line;
    ASSERT_EQ(c2.read_line(line, kMaxRequestBytes),
              TcpConnection::ReadStatus::Ok);
    id = static_cast<std::uint64_t>(
        telemetry::parse_json(line).number_or("id", 0));
    ASSERT_GT(id, 0u);
    ASSERT_TRUE(c2.write_all("{\"cmd\":\"watch\"}\n"));
    ASSERT_EQ(c2.read_line(line, kMaxRequestBytes),
              TcpConnection::ReadStatus::Ok);  // watch ack, then walk away
  }

  // A fresh client still gets full service: the job runs to completion.
  TcpConnection c3 = tcp_connect("127.0.0.1", server.port());
  ASSERT_TRUE(c3.valid());
  std::string state;
  for (int i = 0; i < 2000 && state != "done"; ++i) {
    ASSERT_TRUE(c3.write_all("{\"cmd\":\"status\",\"id\":" +
                             std::to_string(id) + "}\n"));
    std::string line;
    ASSERT_EQ(c3.read_line(line, kMaxRequestBytes),
              TcpConnection::ReadStatus::Ok);
    const telemetry::JsonValue st = telemetry::parse_json(line);
    state = st.find("job") ? st.find("job")->string_or("state", "") : "";
    if (state != "done")
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, "done");
  ASSERT_TRUE(c3.write_all("{\"cmd\":\"shutdown\"}\n"));
  runner.join();
}

TEST(Server, IdleConnectionsAreTimedOutWithDiagnostic) {
  ServerConfig cfg;
  cfg.serve.workers = 1;
  cfg.idle_timeout_seconds = 0.1;
  Server server(cfg);
  server.start();
  std::thread runner([&server] { server.run(); });

  TcpConnection conn = tcp_connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.valid());
  // Send nothing; the server must write an idle-timeout error and close.
  std::string line;
  ASSERT_EQ(conn.read_line(line, kMaxRequestBytes),
            TcpConnection::ReadStatus::Ok);
  const telemetry::JsonValue v = telemetry::parse_json(line);
  ASSERT_TRUE(v.find("error"));
  EXPECT_EQ(v.find("error")->string_or("code", ""), "idle-timeout");
  EXPECT_EQ(conn.read_line(line, kMaxRequestBytes),
            TcpConnection::ReadStatus::Eof);

  // An active connection is unaffected as long as it keeps talking.
  TcpConnection live = tcp_connect("127.0.0.1", server.port());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(live.write_all("{\"cmd\":\"status\"}\n"));
    ASSERT_EQ(live.read_line(line, kMaxRequestBytes),
              TcpConnection::ReadStatus::Ok);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  ASSERT_TRUE(live.write_all("{\"cmd\":\"shutdown\"}\n"));
  runner.join();
}


// ---- http observability plane -----------------------------------------------

struct HttpResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
};

/// Append whatever bytes are pending on `fd` to `acc`; false on EOF/error.
bool recv_some(int fd, std::string& acc) {
  char buf[4096];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  if (n <= 0) return false;
  acc.append(buf, static_cast<std::size_t>(n));
  return true;
}

/// Parse one complete HTTP response out of `acc` (receiving more as
/// needed), consuming exactly the bytes it occupied so keep-alive
/// connections can read the next response from the same buffer.
bool read_http_response(TcpConnection& conn, std::string& acc,
                        HttpResponse& out, bool head_request = false) {
  std::size_t hdr_end;
  while ((hdr_end = acc.find("\r\n\r\n")) == std::string::npos)
    if (!recv_some(conn.fd(), acc)) return false;

  const std::string head = acc.substr(0, hdr_end);
  std::size_t pos = head.find("\r\n");
  const std::string status_line = head.substr(0, pos);
  if (status_line.rfind("HTTP/1.1 ", 0) != 0) return false;
  out.status = std::atoi(status_line.c_str() + 9);

  out.headers.clear();
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t eol = head.find("\r\n", pos + 2);
    const std::string line = head.substr(
        pos + 2, eol == std::string::npos ? std::string::npos : eol - pos - 2);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      std::size_t v = colon + 1;
      while (v < line.size() && line[v] == ' ') ++v;
      out.headers[name] = line.substr(v);
    }
    pos = eol;
  }

  std::size_t content_length = 0;
  const auto it = out.headers.find("content-length");
  if (it != out.headers.end())
    content_length = static_cast<std::size_t>(std::atoll(it->second.c_str()));

  const std::size_t body_start = hdr_end + 4;
  if (head_request) content_length = 0;  // HEAD: Content-Length, no body
  while (acc.size() < body_start + content_length)
    if (!recv_some(conn.fd(), acc)) return false;
  out.body = acc.substr(body_start, content_length);
  acc.erase(0, body_start + content_length);
  return true;
}

/// One request/response round trip on an established connection.
bool http_get(TcpConnection& conn, std::string& acc, const std::string& raw,
              HttpResponse& out) {
  return conn.write_all(raw) &&
         read_http_response(conn, acc, out, raw.rfind("HEAD ", 0) == 0);
}

TEST(Http, ResponseFormatting) {
  const std::string r =
      HttpServer::response(200, "text/plain; charset=utf-8", "ok\n", false);
  EXPECT_EQ(r.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(r.find("Content-Type: text/plain; charset=utf-8\r\n"),
            std::string::npos);
  EXPECT_NE(r.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_EQ(r.find("Connection: close"), std::string::npos);
  EXPECT_EQ(r.substr(r.size() - 7), "\r\n\r\nok\n");

  // HEAD keeps Content-Length but elides the body (RFC 9110 section 9.3.2).
  const std::string h = HttpServer::response(
      200, "text/plain; charset=utf-8", "ok\n", true, /*head=*/true);
  EXPECT_NE(h.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(h.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(h.substr(h.size() - 4), "\r\n\r\n");

  const std::string e =
      HttpServer::response(404, "text/plain; charset=utf-8", "nope\n", true);
  EXPECT_EQ(e.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
}

TEST(Http, HandleRoutesReadOnly) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();

  auto get = [&jm](const std::string& target, const char* method = "GET") {
    HttpServer::Request req;
    req.method = method;
    req.target = target;
    return HttpServer::handle(jm, req);
  };

  EXPECT_NE(get("/healthz").find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(get("/healthz").find("ok\n"), std::string::npos);
  EXPECT_NE(get("/metrics").find("# TYPE"), std::string::npos);
  EXPECT_NE(get("/jobs").find("{\"jobs\":[]}"), std::string::npos);
  EXPECT_EQ(get("/jobs/999").rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(get("/jobs/0").rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(get("/jobs/12abc").rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(get("/nope").rfind("HTTP/1.1 404", 0), 0u);
  // The control plane stays on the line protocol: writes are rejected.
  EXPECT_EQ(get("/metrics", "POST").rfind("HTTP/1.1 405", 0), 0u);
  EXPECT_EQ(get("/jobs", "DELETE").rfind("HTTP/1.1 405", 0), 0u);

  jm.shutdown();
}

TEST(Http, EndToEndScrapeJobsAndKeepAlive) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.slice_seconds = 0.02;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0);
  http.start();
  ASSERT_GT(http.port(), 0);

  SubmitRequest req;
  req.profile = "s27";
  req.name = "s27";
  req.config.seed = 3;
  req.budget.max_evaluations = 300;
  ProtocolError err;
  const std::uint64_t id = jm.submit(req, err);
  ASSERT_NE(id, 0u) << err.message;
  wait_all_terminal(jm, 1);

  TcpConnection conn = tcp_connect("127.0.0.1", http.port());
  ASSERT_TRUE(conn.valid());
  std::string acc;
  HttpResponse r;

  // Several requests on one keep-alive connection.
  ASSERT_TRUE(http_get(conn, acc, "GET /metrics HTTP/1.1\r\n\r\n", r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"],
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(r.body.find("# TYPE serve_jobs_submitted counter"),
            std::string::npos);

  ASSERT_TRUE(http_get(
      conn, acc,
      "GET /jobs/" + std::to_string(id) + " HTTP/1.1\r\n\r\n", r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "application/json");
  EXPECT_NE(r.body.find("\"state\":\"done\""), std::string::npos);

  // HEAD: headers identical to GET, zero body bytes on the wire.
  ASSERT_TRUE(http_get(conn, acc, "HEAD /healthz HTTP/1.1\r\n\r\n", r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-length"], "3");
  EXPECT_TRUE(r.body.empty());
  EXPECT_TRUE(acc.empty());  // nothing left over: the body really was elided

  // Connection: close is honored — response, then EOF.
  ASSERT_TRUE(http_get(conn, acc,
                       "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
                       r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_FALSE(recv_some(conn.fd(), acc));

  http.stop();
  jm.shutdown();
}

TEST(Http, RejectsAbusiveRequests) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0);
  http.start();

  auto one_shot = [&http](const std::string& raw) {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    EXPECT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    EXPECT_TRUE(http_get(conn, acc, raw, r)) << raw.substr(0, 60);
    // Every rejection closes the connection after the response.
    EXPECT_FALSE(recv_some(conn.fd(), acc));
    return r.status;
  };

  // 405 is a well-formed exchange, so the connection stays usable.
  {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    ASSERT_TRUE(http_get(conn, acc, "POST /metrics HTTP/1.1\r\n\r\n", r));
    EXPECT_EQ(r.status, 405);
    ASSERT_TRUE(http_get(conn, acc, "GET /healthz HTTP/1.1\r\n\r\n", r));
    EXPECT_EQ(r.status, 200);
  }

  // Malformed input: answered with a status, then the socket is dropped.
  EXPECT_EQ(one_shot("complete garbage\r\n\r\n"), 400);
  EXPECT_EQ(one_shot("GET\r\n\r\n"), 400);
  EXPECT_EQ(one_shot("GET /metrics SPDY/99\r\n\r\n"), 400);
  EXPECT_EQ(one_shot("GET relative-no-slash HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(one_shot("GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            400);
  EXPECT_EQ(one_shot("GET /healthz HTTP/1.1\r\n: empty-name\r\n\r\n"),
            400);

  // Oversized request line: 414, connection dropped.
  EXPECT_EQ(one_shot("GET /" + std::string(10 * 1024, 'a') +
                     " HTTP/1.1\r\n\r\n"),
            414);

  // Header flood: 431.
  std::string flood = "GET /healthz HTTP/1.1\r\n";
  for (int i = 0; i < 200; ++i)
    flood += "X-Flood-" + std::to_string(i) + ": y\r\n";
  flood += "\r\n";
  EXPECT_EQ(one_shot(flood), 431);

  http.stop();
  jm.shutdown();
}

TEST(Http, IdleSocketsGetRequestTimeout) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0, /*idle_timeout_seconds=*/0.1);
  http.start();

  TcpConnection conn = tcp_connect("127.0.0.1", http.port());
  ASSERT_TRUE(conn.valid());
  std::string acc;
  HttpResponse r;
  // Send nothing: the server must answer 408 and close, not hold the slot.
  ASSERT_TRUE(read_http_response(conn, acc, r));
  EXPECT_EQ(r.status, 408);
  EXPECT_FALSE(recv_some(conn.fd(), acc));

  // Slowloris: trickle partial request-line bytes.  The idle deadline spans
  // partial reads, so a never-completing line still times out at 408.
  TcpConnection slow = tcp_connect("127.0.0.1", http.port());
  ASSERT_TRUE(slow.valid());
  std::string slow_acc;
  std::thread dripper([&slow] {
    for (const char* piece : {"GET", " /he", "alth"}) {
      if (!slow.write_all(piece)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    // Never send the terminating CRLF.
  });
  ASSERT_TRUE(read_http_response(slow, slow_acc, r));
  EXPECT_EQ(r.status, 408);
  EXPECT_FALSE(recv_some(slow.fd(), slow_acc));
  dripper.join();

  http.stop();
  jm.shutdown();
}

TEST(Http, FuzzedRequestBytesNeverCrashTheServer) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0, /*idle_timeout_seconds=*/2.0);
  http.start();

  // Deterministic garbage: random bytes (newline-terminated so the server
  // sees a complete "request line"), random methods, random targets.  The
  // server must answer every one with a well-formed HTTP status or close
  // the connection — and keep serving afterwards.
  std::mt19937 rng(20260808);
  for (int round = 0; round < 60; ++round) {
    std::string raw;
    switch (round % 4) {
      case 0: {  // pure noise
        const std::size_t len = 1 + rng() % 256;
        for (std::size_t i = 0; i < len; ++i)
          raw += static_cast<char>(1 + rng() % 255);  // no embedded NUL
        raw += "\r\n\r\n";
        break;
      }
      case 1: {  // method fuzz
        static const char* kMethods[] = {"OPTIONS", "TRACE", "PATCH",
                                         "get", "G E T", ""};
        raw = std::string(kMethods[rng() % 6]) + " /metrics HTTP/1.1\r\n\r\n";
        break;
      }
      case 2: {  // target fuzz
        std::string target = "/";
        const std::size_t len = rng() % 64;
        for (std::size_t i = 0; i < len; ++i)
          target += static_cast<char>(32 + rng() % 95);
        raw = "GET " + target + " HTTP/1.1\r\n\r\n";
        break;
      }
      default: {  // header fuzz
        raw = "GET /healthz HTTP/1.1\r\n";
        const std::size_t n = rng() % 8;
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t len = rng() % 48;
          for (std::size_t j = 0; j < len; ++j)
            raw += static_cast<char>(32 + rng() % 95);
          raw += "\r\n";
        }
        raw += "\r\n";
        break;
      }
    }
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    if (conn.write_all(raw) && read_http_response(conn, acc, r)) {
      EXPECT_TRUE(r.status >= 200 && r.status < 600) << r.status;
    }
    // else: dropped connection is acceptable for hostile input
  }

  // The plane survived all of it.
  TcpConnection conn = tcp_connect("127.0.0.1", http.port());
  ASSERT_TRUE(conn.valid());
  std::string acc;
  HttpResponse r;
  ASSERT_TRUE(http_get(conn, acc, "GET /healthz HTTP/1.1\r\n\r\n", r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "ok\n");

  http.stop();
  jm.shutdown();
}

TEST(Http, RequestsWithBodiesAreRejected) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0);
  http.start();

  // The server never consumes a body, so on keep-alive the body bytes would
  // be misparsed as the next request line.  Any body announcement is 400'd
  // and the connection closed before desync can happen.
  for (const char* raw :
       {"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        "GET /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        "0\r\n\r\n"}) {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    ASSERT_TRUE(http_get(conn, acc, raw, r)) << raw;
    EXPECT_EQ(r.status, 400) << raw;
    EXPECT_FALSE(recv_some(conn.fd(), acc));
  }

  http.stop();
  jm.shutdown();
}

TEST(Http, ConnectionCapAnswers503AndRecovers) {
  ServeConfig cfg;
  cfg.workers = 1;
  JobManager jm(cfg);
  jm.start();
  HttpServer http(jm, "127.0.0.1", 0, /*idle_timeout_seconds=*/10.0,
                  /*max_connections=*/2);
  http.start();

  // Fill the two slots with keep-alive connections that have each completed
  // a request (so their handler threads are definitely live) and then idle.
  std::vector<TcpConnection> held;
  for (int i = 0; i < 2; ++i) {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    ASSERT_TRUE(http_get(conn, acc, "GET /healthz HTTP/1.1\r\n\r\n", r));
    EXPECT_EQ(r.status, 200);
    held.push_back(std::move(conn));
  }

  // Past the cap: 503 straight off the accept loop — no request needed,
  // no handler thread spawned — and the socket is closed.
  {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    std::string acc;
    HttpResponse r;
    ASSERT_TRUE(read_http_response(conn, acc, r));
    EXPECT_EQ(r.status, 503);
    EXPECT_FALSE(recv_some(conn.fd(), acc));
  }

  // Release the slots; the accept loop reaps the finished handlers and the
  // plane serves again.  Allow a few retries for the handlers to wind down.
  held.clear();
  int status = 0;
  for (int attempt = 0; attempt < 100 && status != 200; ++attempt) {
    TcpConnection conn = tcp_connect("127.0.0.1", http.port());
    ASSERT_TRUE(conn.valid());
    // If the slot is still held, the first response on the wire is the
    // accept loop's 503 regardless of what we send; otherwise it is our 200.
    conn.write_all("GET /healthz HTTP/1.1\r\n\r\n");
    std::string acc;
    HttpResponse r;
    if (read_http_response(conn, acc, r)) status = r.status;
    if (status != 200)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(status, 200);

  http.stop();
  jm.shutdown();
}

}  // namespace
}  // namespace gatest::serve
