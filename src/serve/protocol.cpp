#include "serve/protocol.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "telemetry/json.h"
#include "telemetry/trace.h"

namespace gatest::serve {

namespace {

using telemetry::JsonValue;

void append_escaped(std::string& out, std::string_view s) {
  // TraceValue already implements JSON string escaping; reuse it.
  telemetry::TraceValue(std::string(s)).append_json(out);
}

bool fail(ProtocolError& err, std::string code, std::string message) {
  err.code = std::move(code);
  err.message = std::move(message);
  return false;
}

/// Fetch a non-negative integral number member; false (with err) when the
/// member exists but is not a whole number >= min.
bool get_uint(const JsonValue& obj, const char* key, std::uint64_t min_value,
              std::uint64_t& out, bool& present, ProtocolError& err) {
  const JsonValue* v = obj.find(key);
  present = v != nullptr;
  if (!v) return true;
  if (!v->is_number() || v->number < 0 ||
      v->number != std::floor(v->number) || v->number > 1e15)
    return fail(err, "bad-field",
                std::string(key) + " must be a non-negative integer");
  const auto u = static_cast<std::uint64_t>(v->number);
  if (u < min_value)
    return fail(err, "bad-field", std::string(key) + " must be >= " +
                                      std::to_string(min_value));
  out = u;
  return true;
}

bool get_bool(const JsonValue& obj, const char* key, bool& out,
              ProtocolError& err) {
  const JsonValue* v = obj.find(key);
  if (!v) return true;
  if (v->type != JsonValue::Type::Bool)
    return fail(err, "bad-field", std::string(key) + " must be a boolean");
  out = v->boolean;
  return true;
}

/// Map the "config" object onto TestGenConfig.  Unknown keys are rejected so
/// client typos fail loudly instead of silently running defaults.
bool map_config(const JsonValue& cfg, TestGenConfig& out, ProtocolError& err) {
  if (!cfg.is_object())
    return fail(err, "bad-field", "config must be an object");
  for (const auto& [key, value] : cfg.object) {
    (void)value;
    static constexpr const char* kKnown[] = {
        "seed",          "sample",        "threads",
        "gap",           "selection",     "crossover",
        "coding",        "fitness_cache", "lane_compaction",
        "prune_untestable", "prune_proven", "fsim_backend"};
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known)
      return fail(err, "bad-field", "unknown config key '" + key + "'");
  }

  std::uint64_t u = 0;
  bool present = false;
  if (!get_uint(cfg, "seed", 0, u, present, err)) return false;
  if (present) out.seed = u;
  if (!get_uint(cfg, "sample", 0, u, present, err)) return false;
  if (present) out.fault_sample_size = static_cast<unsigned>(u);
  if (!get_uint(cfg, "threads", 1, u, present, err)) return false;
  if (present) {
    if (u > 16)
      return fail(err, "bad-field", "threads must be in [1,16]");
    out.num_threads = static_cast<unsigned>(u);
  }

  if (const JsonValue* v = cfg.find("gap")) {
    if (!v->is_number() || !(v->number > 0.0 && v->number <= 1.0))
      return fail(err, "bad-field", "gap must be a number in (0,1]");
    out.generation_gap = v->number;
  }
  if (const JsonValue* v = cfg.find("selection")) {
    if (!v->is_string())
      return fail(err, "bad-field", "selection must be a string");
    if (v->str == "roulette") out.selection = SelectionScheme::RouletteWheel;
    else if (v->str == "sus") out.selection = SelectionScheme::StochasticUniversal;
    else if (v->str == "tournament")
      out.selection = SelectionScheme::TournamentNoReplacement;
    else if (v->str == "tournament-r")
      out.selection = SelectionScheme::TournamentWithReplacement;
    else return fail(err, "bad-field", "unknown selection '" + v->str + "'");
  }
  if (const JsonValue* v = cfg.find("crossover")) {
    if (!v->is_string())
      return fail(err, "bad-field", "crossover must be a string");
    if (v->str == "1point") out.crossover = CrossoverScheme::OnePoint;
    else if (v->str == "2point") out.crossover = CrossoverScheme::TwoPoint;
    else if (v->str == "uniform") out.crossover = CrossoverScheme::Uniform;
    else return fail(err, "bad-field", "unknown crossover '" + v->str + "'");
  }
  if (const JsonValue* v = cfg.find("coding")) {
    if (!v->is_string())
      return fail(err, "bad-field", "coding must be a string");
    if (v->str == "binary") out.sequence_coding = Coding::Binary;
    else if (v->str == "nonbinary") out.sequence_coding = Coding::NonBinary;
    else return fail(err, "bad-field", "unknown coding '" + v->str + "'");
  }
  if (!get_bool(cfg, "prune_untestable", out.prune_untestable, err))
    return false;
  if (!get_bool(cfg, "prune_proven", out.prune_proven, err)) return false;
  // Retired keys, still written by older daemons into every journal record.
  // They are validated as before and then ignored: each setting only ever
  // chose between bit-identical runs, so dropping them changes no result.
  bool retired = false;
  if (!get_bool(cfg, "lane_compaction", retired, err)) return false;
  if (!get_bool(cfg, "fitness_cache", retired, err)) return false;
  if (const JsonValue* v = cfg.find("fsim_backend")) {
    if (!v->is_string())
      return fail(err, "bad-field", "fsim_backend must be a string");
    if (v->str != "event" && v->str != "levelized")
      return fail(err, "bad-field",
                  "unknown fsim_backend '" + v->str + "'");
  }
  return true;
}

/// Map the "budget" object onto RunBudget.  Wall-clock budgets are rejected:
/// a sliced job's tracker restarts per segment, so a time budget would not
/// mean "total job time" — eval/vector budgets are cumulative and exact.
bool map_budget(const JsonValue& b, RunBudget& out, ProtocolError& err) {
  if (!b.is_object())
    return fail(err, "bad-field", "budget must be an object");
  for (const auto& [key, value] : b.object) {
    (void)value;
    if (key == "time_limit")
      return fail(err, "bad-field",
                  "time_limit budgets are not supported for served jobs "
                  "(slice segments restart the clock); use max_evals or "
                  "max_vectors");
    if (key != "max_evals" && key != "max_vectors")
      return fail(err, "bad-field", "unknown budget key '" + key + "'");
  }
  std::uint64_t u = 0;
  bool present = false;
  if (!get_uint(b, "max_evals", 1, u, present, err)) return false;
  if (present) out.max_evaluations = u;
  if (!get_uint(b, "max_vectors", 1, u, present, err)) return false;
  if (present) out.max_vectors = u;
  return true;
}

}  // namespace

const char* to_string(Command c) {
  switch (c) {
    case Command::Submit:   return "submit";
    case Command::Status:   return "status";
    case Command::Cancel:   return "cancel";
    case Command::Result:   return "result";
    case Command::Watch:    return "watch";
    case Command::Metrics:  return "metrics";
    case Command::Shutdown: return "shutdown";
  }
  return "?";
}

bool parse_request(std::string_view line, Request& req, ProtocolError& err) {
  req = Request{};
  if (line.size() > kMaxRequestBytes)
    return fail(err, "oversized",
                "request line exceeds " + std::to_string(kMaxRequestBytes) +
                    " bytes");

  JsonValue root;
  try {
    root = telemetry::parse_json(line);
  } catch (const std::exception& e) {
    return fail(err, "bad-json", e.what());
  }
  if (!root.is_object())
    return fail(err, "not-object", "request must be a JSON object");

  const JsonValue* cmd = root.find("cmd");
  if (!cmd) return fail(err, "missing-field", "request needs a 'cmd' member");
  if (!cmd->is_string())
    return fail(err, "bad-field", "'cmd' must be a string");

  if (cmd->str == "submit") req.cmd = Command::Submit;
  else if (cmd->str == "status") req.cmd = Command::Status;
  else if (cmd->str == "cancel") req.cmd = Command::Cancel;
  else if (cmd->str == "result") req.cmd = Command::Result;
  else if (cmd->str == "watch") req.cmd = Command::Watch;
  else if (cmd->str == "metrics") req.cmd = Command::Metrics;
  else if (cmd->str == "shutdown") req.cmd = Command::Shutdown;
  else return fail(err, "unknown-command", "unknown cmd '" + cmd->str + "'");

  std::uint64_t id = 0;
  bool has_id = false;
  if (!get_uint(root, "id", 0, id, has_id, err)) return false;
  req.has_id = has_id;
  req.id = id;

  if (req.cmd == Command::Cancel || req.cmd == Command::Result) {
    if (!has_id)
      return fail(err, "missing-field",
                  std::string(to_string(req.cmd)) + " needs an 'id' member");
  }

  if (req.cmd != Command::Submit) return true;

  const JsonValue* profile = root.find("profile");
  const JsonValue* bench = root.find("bench");
  if ((profile != nullptr) == (bench != nullptr))
    return fail(err, "missing-field",
                "submit needs exactly one of 'profile' or 'bench'");
  if (profile) {
    if (!profile->is_string() || profile->str.empty())
      return fail(err, "bad-field", "'profile' must be a non-empty string");
    req.submit.profile = profile->str;
  } else {
    if (!bench->is_string() || bench->str.empty())
      return fail(err, "bad-field", "'bench' must be a non-empty string");
    req.submit.bench_text = bench->str;
  }
  if (const JsonValue* name = root.find("name")) {
    if (!name->is_string())
      return fail(err, "bad-field", "'name' must be a string");
    req.submit.name = name->str;
  }
  if (const JsonValue* cfg = root.find("config"))
    if (!map_config(*cfg, req.submit.config, err)) return false;
  if (const JsonValue* b = root.find("budget"))
    if (!map_budget(*b, req.submit.budget, err)) return false;
  return true;
}

std::string submit_json(const SubmitRequest& req) {
  JsonWriter w;
  w.begin_object().key("cmd").value("submit");
  if (!req.name.empty()) w.key("name").value(req.name);
  if (!req.profile.empty()) w.key("profile").value(req.profile);
  else w.key("bench").value(req.bench_text);

  // Emit every protocol-mapped config knob explicitly (defaults included):
  // the journal must survive a default change between daemon versions
  // without silently re-running an old job under new settings.
  const TestGenConfig& c = req.config;
  const char* selection = "tournament";
  switch (c.selection) {
    case SelectionScheme::RouletteWheel:           selection = "roulette"; break;
    case SelectionScheme::StochasticUniversal:     selection = "sus"; break;
    case SelectionScheme::TournamentNoReplacement: selection = "tournament"; break;
    case SelectionScheme::TournamentWithReplacement:
      selection = "tournament-r";
      break;
  }
  const char* crossover = "uniform";
  switch (c.crossover) {
    case CrossoverScheme::OnePoint: crossover = "1point"; break;
    case CrossoverScheme::TwoPoint: crossover = "2point"; break;
    case CrossoverScheme::Uniform:  crossover = "uniform"; break;
  }
  w.key("config").begin_object()
      .key("seed").value(static_cast<std::uint64_t>(c.seed))
      .key("sample").value(static_cast<std::uint64_t>(c.fault_sample_size))
      .key("threads").value(static_cast<std::uint64_t>(c.num_threads))
      .key("gap").value(c.generation_gap)
      .key("selection").value(selection)
      .key("crossover").value(crossover)
      .key("coding").value(c.sequence_coding == Coding::NonBinary ? "nonbinary"
                                                                  : "binary")
      .key("prune_untestable").value(c.prune_untestable)
      .key("prune_proven").value(c.prune_proven)
  .end_object();

  w.key("budget").begin_object();
  if (req.budget.max_evaluations > 0)
    w.key("max_evals")
        .value(static_cast<std::uint64_t>(req.budget.max_evaluations));
  if (req.budget.max_vectors > 0)
    w.key("max_vectors")
        .value(static_cast<std::uint64_t>(req.budget.max_vectors));
  w.end_object().end_object();

  std::string line = w.take();
  line.pop_back();  // callers embed the line; no trailing newline
  return line;
}

// ---- JsonWriter -------------------------------------------------------------

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  append_escaped(out_, k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  comma();
  append_escaped(out_, s);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  comma();
  telemetry::TraceValue(d).append_json(out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  comma();
  out_ += b ? "true" : "false";
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  comma();
  telemetry::TraceValue(static_cast<unsigned long long>(u)).append_json(out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  comma();
  telemetry::TraceValue(static_cast<long long>(i)).append_json(out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  need_comma_ = true;
  return *this;
}

std::string JsonWriter::take() {
  out_ += '\n';
  std::string s = std::move(out_);
  out_.clear();
  need_comma_ = false;
  return s;
}

std::string error_line(const ProtocolError& err) {
  JsonWriter w;
  w.begin_object()
      .key("ok").value(false)
      .key("error").begin_object()
          .key("code").value(err.code)
          .key("message").value(err.message);
  if (err.retry_after_ms > 0)
    w.key("retry_after_ms")
        .value(static_cast<std::uint64_t>(err.retry_after_ms));
  w.end_object().end_object();
  return w.take();
}

std::string ok_line() {
  JsonWriter w;
  w.begin_object().key("ok").value(true).end_object();
  return w.take();
}

}  // namespace gatest::serve
