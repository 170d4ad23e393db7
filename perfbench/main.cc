// retrace benchmark: the paper's two axes, end to end and per module.
//
//   retrace_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--spans <path>]   (required with --trace 1)
//
// Each workload is a user site (instrumented runs of the workload's user
// inputs under its plans, timed as the shipped binary runs) followed by a
// developer site (every crash report handed to the reproduction engine,
// or to a ReplayService on a standing fork fleet). A run sets the
// workload up several times, then repeats whole rounds of the same
// operations until --seconds have passed, and reports medians over
// rounds. --seed orders the inputs and reports inside a round and the
// connections of the userver-record load; search seeds and budgets are
// fixed, so the searches themselves repeat exactly.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds (their ratio, pair by pair, is the tracing overhead),
// runs the per-module probes, prints the per-layer metrics and writes one
// span per module call to --spans. The last line of stdout is one JSON object.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pipeline.h"
#include "src/instrument/syscall_log.h"
#include "src/ir/lowering.h"
#include "src/workloads/scenarios.h"
#include "src/workloads/workloads.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace retrace;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

// splitmix64: the only source of --seed-dependent choices.
class SeedRng {
 public:
  explicit SeedRng(u64 seed) : state_(seed) {}
  u64 Next() {
    u64 z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Next() % i]);
    }
  }

 private:
  u64 state_;
};

std::vector<size_t> Permutation(size_t n, SeedRng* rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  rng->Shuffle(&order);
  return order;
}

// ----- Workloads -------------------------------------------------------------

enum class Kind { kLcSearch, kLoggedReplay, kRecord, kFleet };

struct WorkloadInfo {
  const char* name;
  Kind kind;
  // Timed repetitions of each user-site recording per round. A crash
  // scenario runs for a fraction of a millisecond; the repetitions make
  // each sample tens of milliseconds long, so host jitter averages out.
  int record_reps;
};

constexpr WorkloadInfo kWorkloads[] = {
    {"userver-lc-search", Kind::kLcSearch, 160},
    {"logged-replay", Kind::kLoggedReplay, 40},
    {"userver-record", Kind::kRecord, 2},
    {"fleet-service", Kind::kFleet, 100},
};

// The userver-record load: the repo's standard uServer load (GET, long
// GET and POST in turn, over at most four concurrent connections), with
// the order of its connections drawn from --seed.
constexpr int kLoadRequests = 120;

InputSpec LoadSpec(u64 seed) {
  InputSpec spec = UserverLoadSpec(kLoadRequests);
  SeedRng rng(seed ^ 0x10adull);
  rng.Shuffle(&spec.world.connection_streams);
  return spec;
}

// Every replay setting is spelled out: nothing is left to a default that
// an environment variable could resolve.
ReplayConfig SearchConfig(u32 num_workers, u32 num_shards) {
  ReplayConfig config;
  config.max_runs = 50'000;
  config.wall_ms = 60'000;
  config.total_steps = 4'000'000'000ull;
  config.max_steps_per_run = 100'000'000;
  config.solver = SolverOptions{};
  config.solver.max_steps = 2'000'000;
  config.solver.max_enumeration = 512;
  config.seed = 31;
  config.use_syscall_log = true;
  config.pick = ReplayConfig::Pick::kDfs;
  config.num_workers = num_workers;
  config.num_shards = num_shards;
  config.solver_cache = true;
  config.slice_cache_capacity = 0;
  config.solve_batch = 8;
  config.prune_subsumed = false;
  config.engine = ExecEngineKind::kDefault;
  config.corpus_seeds.clear();
  config.transport = ReplayTransport::kFork;
  config.tcp_listen = "127.0.0.1:0";
  config.shard_endpoints.clear();
  config.gossip_interval_ms = 20;
  config.heartbeat_interval_ms = 100;
  config.heartbeat_timeout_ms = 10'000;
  config.fault_spec.clear();
  config.shard_token.clear();
  return config;
}

AnalysisConfig ExploreConfig(u64 max_runs, std::vector<std::vector<i64>> seed_models) {
  AnalysisConfig config;
  config.max_runs = max_runs;
  config.wall_ms = -1;
  config.max_steps_per_run = 50'000'000;
  config.total_steps = 2'000'000'000;
  config.solver = SolverOptions{};
  config.seed = 17;
  config.start_from_defaults = true;
  config.extra_seed_models = std::move(seed_models);
  config.corpus_max = 64;
  config.engine = ExecEngineKind::kDefault;
  return config;
}

constexpr u64 kUserMaxSteps = 400'000'000;

struct PlanEntry {
  std::string name;
  size_t program = 0;
  InstrumentationPlan plan;
};

struct UserInput {
  std::string label;
  size_t plan = 0;
  InputSpec spec;
  std::shared_ptr<NondetPolicy> policy;
  u64 requests = 0;   // HTTP requests served (uServer) or file pairs compared (diff).
  bool crashes = false;
  size_t report = 0;  // Index into Setup::reports when `crashes`.
};

// What the set-up's module calls cost, for the traced run.
struct SetupLayers {
  double compile_s = 0.0;
  u64 branches = 0;
  double concolic_s = 0.0;
  u64 concolic_runs = 0;
  double static_s = 0.0;
  double plan_s = 0.0;
  u64 plan_branches = 0;
};

struct Setup {
  std::vector<std::unique_ptr<Pipeline>> programs;
  std::vector<PlanEntry> plans;
  std::vector<UserInput> inputs;
  std::vector<BugReport> reports;
  std::vector<size_t> report_input;  // reports[i] was recorded from inputs[report_input[i]].
  SetupLayers layers;

  Pipeline& PipelineOf(size_t plan) { return *programs[plans[plan].program]; }
};

// Compile, pre-deployment analyses, plans, and the user-site recording of
// every crash report: everything the workload needs before its first round.
Setup BuildSetup(Kind kind, u64 seed, Tracer& tracer) {
  Setup s;
  auto timed = [&](const char* span, double* total, auto&& fn) {
    ScopedSpan scope(tracer, span);
    const Clock::time_point t0 = Clock::now();
    auto out = fn(scope);
    *total += SecondsSince(t0);
    return out;
  };

  auto compile = [&](const std::string& name) {
    const WorkloadSources sources = GetWorkload(name);
    std::unique_ptr<Pipeline> pipeline =
        timed("lang.compile", &s.layers.compile_s, [&](ScopedSpan& span) {
          Result<std::unique_ptr<Pipeline>> built =
              Pipeline::FromSources(sources.app, sources.libs);
          if (!built.ok()) {
            Fatal("compiling " + name + ": " + built.error().ToString());
          }
          std::unique_ptr<Pipeline> p = built.take();
          span.Count("ir.branches", p->module().branches.size());
          return p;
        });
    s.layers.branches += pipeline->module().branches.size();
    if (tracer.enabled()) {
      // FromSources parses, checks and lowers in one call; lowering the
      // checked program once more times the ir layer on its own.
      ScopedSpan span(tracer, "ir.lower");
      Result<std::unique_ptr<IrModule>> lowered = Lower(pipeline->program());
      if (!lowered.ok()) {
        Fatal("lowering " + name + ": " + lowered.error().ToString());
      }
      span.Count("ir.branches", lowered.value()->branches.size());
    }
    s.programs.push_back(std::move(pipeline));
    return s.programs.size() - 1;
  };
  auto explore = [&](size_t program, const InputSpec& spec, const AnalysisConfig& config) {
    AnalysisResult result =
        timed("concolic.analysis", &s.layers.concolic_s, [&](ScopedSpan& span) {
          AnalysisResult r = s.programs[program]->RunDynamicAnalysis(spec, config);
          span.Count("concolic.runs", r.runs);
          return r;
        });
    s.layers.concolic_runs += result.runs;
    return result;
  };
  auto analyze_static = [&](size_t program, bool analyze_library) {
    StaticAnalysisOptions options;
    options.analyze_library = analyze_library;
    return timed("analysis.static", &s.layers.static_s, [&](ScopedSpan&) {
      return s.programs[program]->RunStaticAnalysis(options);
    });
  };
  auto make_plan = [&](const std::string& name, size_t program, const PlanInputs& inputs) {
    PlanOptions options;
    options.dynamic_overrides_static = true;
    InstrumentationPlan plan = timed("instrument.plan", &s.layers.plan_s, [&](ScopedSpan& span) {
      InstrumentationPlan p = s.programs[program]->MakePlan(inputs, options);
      span.Count("instrument.plan_branches", p.NumInstrumented());
      return p;
    });
    s.layers.plan_branches += plan.NumInstrumented();
    s.plans.push_back({name, program, std::move(plan)});
    return s.plans.size() - 1;
  };
  auto add_scenario = [&](size_t plan, const Scenario& scenario, u64 requests) {
    UserInput input;
    input.label = scenario.name + "/" + s.plans[plan].name;
    input.plan = plan;
    input.spec = scenario.spec;
    input.policy = scenario.policy;
    input.requests = requests;
    input.crashes = true;
    s.inputs.push_back(std::move(input));
  };
  // Connections per uServer experiment (scenarios.h): 1, 1, 1, 2, 3.
  const u64 kUserverRequests[] = {0, 1, 1, 1, 2, 3};

  switch (kind) {
    case Kind::kLcSearch:
    case Kind::kFleet: {
      const size_t userver = compile("userver");
      const AnalysisResult lc = explore(userver, UserverExploreSpecLC(), ExploreConfig(4, {}));
      const size_t plan = make_plan("lc", userver, PlanInputs::Dynamic(lc));
      const std::vector<int> experiments =
          kind == Kind::kLcSearch ? std::vector<int>{1, 3, 4} : std::vector<int>{1, 2, 3, 4};
      for (const int e : experiments) {
        add_scenario(plan, UserverScenario(e), kUserverRequests[e]);
      }
      break;
    }
    case Kind::kLoggedReplay: {
      const size_t diff = compile("diff");
      const size_t userver = compile("userver");
      const StaticAnalysisResult diff_static = analyze_static(diff, /*analyze_library=*/true);
      const StaticAnalysisResult userver_static =
          analyze_static(userver, /*analyze_library=*/false);
      const size_t diff_plan = make_plan("static", diff, PlanInputs::Static(diff_static));
      const size_t userver_plan =
          make_plan("static", userver, PlanInputs::Static(userver_static));
      for (int e = 1; e <= 2; ++e) {
        add_scenario(diff_plan, DiffScenario(e), 1);
      }
      for (int e = 1; e <= 5; ++e) {
        add_scenario(userver_plan, UserverScenario(e), kUserverRequests[e]);
      }
      break;
    }
    case Kind::kRecord: {
      const size_t userver = compile("userver");
      const AnalysisResult lc = explore(userver, UserverExploreSpecLC(), ExploreConfig(4, {}));
      const AnalysisResult hc =
          explore(userver, UserverExploreSpec(), ExploreConfig(64, UserverExploreSeedModels()));
      const StaticAnalysisResult stat = analyze_static(userver, /*analyze_library=*/false);
      const size_t plans[] = {
          make_plan("lc", userver, PlanInputs::Dynamic(lc)),
          make_plan("hc", userver, PlanInputs::DynamicStatic(hc, stat)),
          make_plan("all", userver, PlanInputs::AllBranches()),
      };
      const InputSpec load = LoadSpec(seed);
      for (const size_t plan : plans) {
        UserInput input;
        input.label = "load/" + s.plans[plan].name;
        input.plan = plan;
        input.spec = load;
        input.requests = kLoadRequests;
        input.crashes = false;
        s.inputs.push_back(std::move(input));
      }
      for (const size_t plan : plans) {
        add_scenario(plan, UserverScenario(1), kUserverRequests[1]);
      }
      break;
    }
  }

  // The user site ships a report for every crash.
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    UserInput& input = s.inputs[i];
    if (!input.crashes) {
      continue;
    }
    Pipeline::UserRunOptions options;
    options.log_syscalls = true;
    options.policy = input.policy.get();
    options.max_steps = kUserMaxSteps;
    Result<Pipeline::UserRunOutput> recorded = [&] {
      ScopedSpan span(tracer, "instrument.record_report");
      return s.PipelineOf(input.plan).RecordUserRun(input.spec, s.plans[input.plan].plan,
                                                    options);
    }();
    if (!recorded.ok()) {
      Fatal("recording " + input.label + ": " + recorded.error().ToString());
    }
    Pipeline::UserRunOutput user = recorded.take();
    if (!user.result.Crashed()) {
      Fatal("user run " + input.label + " did not crash");
    }
    input.report = s.reports.size();
    s.reports.push_back(std::move(user.report));
    s.report_input.push_back(i);
  }
  return s;
}

// ----- Checks ---------------------------------------------------------------

// The benchmark's own count of the branch executions a plan logs. It
// answers from the plan's bitset through OnBranch (it does not take the
// engine's baked site hint), so it is independent of the recorder.
class LoggedBranchCounter : public BranchObserver {
 public:
  explicit LoggedBranchCounter(const InstrumentationPlan& plan) : plan_(plan) {}
  Action OnBranch(i32 branch_id, bool, ExprRef) override {
    ++branches_;
    if (plan_.Instrumented(branch_id)) {
      ++logged_;
    }
    return Action::kContinue;
  }
  u64 logged() const { return logged_; }
  u64 branches() const { return branches_; }

 private:
  const InstrumentationPlan& plan_;
  u64 logged_ = 0;
  u64 branches_ = 0;
};

CellRunConfig UserSiteConfig(const UserInput& input, const InstrumentationPlan* plan,
                             std::vector<BranchObserver*> observers) {
  CellRunConfig config;
  config.policy = input.policy.get();
  config.observers = std::move(observers);
  config.symbolic_syscalls = false;
  config.max_steps = kUserMaxSteps;
  config.engine = ExecEngineKind::kDefault;
  config.plan = plan;
  return config;
}

// Per-run state of one user input: its runner (engines are pooled across
// runs) and what the checks established about it.
struct InputState {
  std::unique_ptr<CellRunner> runner;
  std::string plain_stdout;
  u64 log_bits = 0;
  u64 logged_execs = 0;   // LoggedBranchCounter
  u64 branch_execs = 0;   // RunStats
  bool ok = true;
};

// Once per run, untimed: the uninstrumented output, the benchmark's own
// branch counts, and the checks that tie the recorder to them.
std::vector<InputState> CheckUserSite(Setup& s, std::vector<std::string>* problems) {
  std::vector<InputState> states(s.inputs.size());
  for (size_t i = 0; i < s.inputs.size(); ++i) {
    const UserInput& input = s.inputs[i];
    const PlanEntry& plan = s.plans[input.plan];
    InputState& st = states[i];
    st.runner = std::make_unique<CellRunner>(s.PipelineOf(input.plan).module(), input.spec);
    auto fail = [&](const std::string& what) {
      st.ok = false;
      problems->push_back(input.label + ": " + what);
    };

    const CellRunOutput plain = st.runner->Run(UserSiteConfig(input, nullptr, {}));
    st.plain_stdout = plain.stdout_text;

    BranchTraceRecorder recorder(plan.plan);
    LoggedBranchCounter counter(plan.plan);
    const CellRunOutput run =
        st.runner->Run(UserSiteConfig(input, &plan.plan, {&recorder, &counter}));
    st.log_bits = recorder.bits_recorded();
    st.logged_execs = counter.logged();
    st.branch_execs = run.result.stats.branch_execs;

    if (run.stdout_text != plain.stdout_text) {
      fail("instrumented output differs from the uninstrumented output");
    }
    if (run.result.Crashed() != input.crashes || plain.result.Crashed() != input.crashes) {
      fail(input.crashes ? "did not crash" : "crashed");
    }
    if (counter.branches() != run.result.stats.branch_execs) {
      fail("observer saw a different number of branches than RunStats counts");
    }
    if (recorder.bits_recorded() != counter.logged()) {
      fail("log bit count differs from the benchmark's own count of logged branches");
    }
    if (plan.plan.method == InstrumentMethod::kAllBranches &&
        counter.logged() != run.result.stats.branch_execs) {
      fail("all-branches plan logged fewer executions than the run executed");
    }
    if (input.crashes && recorder.TakeLog() != s.reports[input.report].branch_log) {
      fail("recording is not bit-identical to the report's branch log");
    }
  }
  return states;
}

// Re-runs a witness concretely, recorded under the report's plan: it must
// crash at the reported site and log exactly the report's bits.
bool WitnessHolds(Setup& s, size_t report, const std::vector<i64>& witness) {
  const BugReport& r = s.reports[report];
  const UserInput& input = s.inputs[s.report_input[report]];
  Pipeline& pipeline = s.PipelineOf(input.plan);
  const InstrumentationPlan& plan = s.plans[input.plan].plan;
  if (!pipeline.VerifyWitness(r, witness)) {
    return false;
  }
  CellRunner runner(pipeline.module(), r.shape);
  BranchTraceRecorder recorder(plan);
  CellRunConfig config;
  config.model = witness;
  config.symbolic_syscalls = false;
  config.engine = ExecEngineKind::kDefault;
  config.observers = {&recorder};
  config.plan = &plan;
  const CellRunOutput run = runner.Run(config);
  return run.result.Crashed() && run.result.crash.SameSite(r.crash) &&
         recorder.TakeLog() == r.branch_log;
}

// ----- Rounds ---------------------------------------------------------------

struct SearchCounters {
  u64 runs = 0;
  u64 solver_calls = 0;
  u64 slices_solved = 0;
  u64 sat_hits = 0;
  u64 unsat_hits = 0;
  u64 aborts_forced = 0;
  u64 aborts_mismatch = 0;
  u64 aborts_exhausted = 0;
  u64 pending_peak = 0;
  u64 steals = 0;
  u64 dedup_skips = 0;
  u64 cancelled_runs = 0;
  u64 harvest_runs = 0;
  u64 wire_bytes = 0;
  u64 verdicts_gossiped = 0;
  u64 pendings_rebalanced = 0;
  u64 shards_lost = 0;

  void Add(const ReplayStats& st) {
    runs += st.runs;
    solver_calls += st.solver_calls;
    slices_solved += st.slices_solved;
    sat_hits += st.slice_sat_hits;
    unsat_hits += st.slice_unsat_hits;
    aborts_forced += st.aborts_forced_direction;
    aborts_mismatch += st.aborts_concrete_mismatch;
    aborts_exhausted += st.aborts_log_exhausted;
    pending_peak = std::max(pending_peak, st.pending_peak);
    steals += st.steals;
    dedup_skips += st.dedup_skips;
    cancelled_runs += st.cancelled_runs;
    harvest_runs += st.harvest_runs;
    wire_bytes += st.wire_bytes_tx + st.wire_bytes_rx;
    verdicts_gossiped += st.verdicts_gossiped;
    pendings_rebalanced += st.pendings_exported;
    shards_lost += st.shards_lost;
  }
};

struct RoundResult {
  double wall_s = 0.0;
  double trace_self_s = 0.0;  // The tracer's own time within the round.
  double record_s = 0.0;   // Timed user-site recordings.
  u64 requests = 0;        // Requests those recordings served.
  double reproduce_s = 0.0;
  double verify_s = 0.0;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<u64> report_runs;  // Per report (setup order); fresh searches only.
  std::vector<std::vector<i64>> witnesses;
  SearchCounters search;
  // fleet-service only.
  double fleet_start_s = 0.0;
  double submit_search_s = 0.0;
  double submit_cached_s = 0.0;
  u64 searches_run = 0;
  u64 cached_verdicts = 0;
};

struct RunContext {
  const WorkloadInfo& workload;
  Setup& setup;
  std::vector<InputState>& inputs;
  std::vector<size_t> input_order;
  std::vector<size_t> report_order;
  std::vector<std::string>* problems;
};

// One user-site operation: the input served by the instrumented binary,
// record_reps times, each output checked against the uninstrumented run.
void RecordInput(RunContext& ctx, Tracer& tracer, size_t i, RoundResult* out) {
  Setup& s = ctx.setup;
  const UserInput& input = s.inputs[i];
  const InstrumentationPlan& plan = s.plans[input.plan].plan;
  InputState& st = ctx.inputs[i];
  ScopedSpan span(tracer, "instrument.record");
  bool ok = st.ok;
  double seconds = 0.0;
  for (int rep = 0; rep < ctx.workload.record_reps; ++rep) {
    BranchTraceRecorder recorder(plan);
    const CellRunConfig config = UserSiteConfig(input, &plan, {&recorder});
    const Clock::time_point t0 = Clock::now();
    const CellRunOutput run = st.runner->Run(config);
    seconds += SecondsSince(t0);
    ok = ok && run.result.Crashed() == input.crashes && run.stdout_text == st.plain_stdout &&
         recorder.bits_recorded() == st.log_bits;
    if (rep == 0 && tracer.enabled()) {
      span.Count("instrument.log_bits", recorder.bits_recorded());
      span.Count("vos.syscalls", run.result.stats.syscalls);
      ScopedSpan vos(tracer, "vos.syscall_log");
      vos.Count("vos.syscall_log_bytes", SyscallLogBytes(SyscallLogFromTrace(run.dyn_trace)));
    }
  }
  out->record_s += seconds;
  out->requests += input.requests * static_cast<u64>(ctx.workload.record_reps);
  ++out->attempted;
  if (!ok) {
    ++out->failed;
  }
}

void VerifyVerdict(RunContext& ctx, Tracer& tracer, size_t report, const ReplayResult& result,
                   RoundResult* out, bool* ok) {
  ScopedSpan span(tracer, "replay.verify");
  const Clock::time_point t0 = Clock::now();
  if (!result.reproduced) {
    *ok = false;
  } else if (!WitnessHolds(ctx.setup, report, result.witness_cells)) {
    *ok = false;
    ctx.problems->push_back("witness of report " + std::to_string(report) +
                            " fails its check");
  }
  out->verify_s += SecondsSince(t0);
  out->witnesses[report] = result.witness_cells;
}

// One developer-site operation: the report handed to Pipeline::Reproduce
// and its witness checked.
void ReproduceReport(RunContext& ctx, Tracer& tracer, size_t r, RoundResult* out) {
  Setup& s = ctx.setup;
  const ReplayConfig config = SearchConfig(/*num_workers=*/1, /*num_shards=*/1);
  const UserInput& input = s.inputs[s.report_input[r]];
  ReplayResult result;
  {
    ScopedSpan span(tracer, "replay.reproduce");
    const Clock::time_point t0 = Clock::now();
    Result<ReplayResult> reproduced =
        s.PipelineOf(input.plan).Reproduce(s.reports[r], s.plans[input.plan].plan, config);
    out->reproduce_s += SecondsSince(t0);
    if (!reproduced.ok()) {
      Fatal("reproducing " + input.label + ": " + reproduced.error().ToString());
    }
    result = reproduced.take();
    span.Count("replay.runs", result.stats.runs);
  }
  out->search.Add(result.stats);
  out->report_runs[r] = result.stats.runs;
  bool ok = true;
  VerifyVerdict(ctx, tracer, r, result, out, &ok);
  ++out->attempted;
  if (!ok) {
    ++out->failed;
  }
}

// The reports streamed twice through a fresh ReplayService on a standing
// 2-shard fork fleet; the second pass is answered from the verdict cache.
// The measured rounds run one worker per shard: with two, thread timing
// inside each shard changes the searches from round to round (8.7k to
// 27.9k runs for the four reports) and reproduce_s spread by 56% over
// five seeds.
void ServiceRound(RunContext& ctx, Tracer& tracer, u32 workers_per_shard, RoundResult* out) {
  Setup& s = ctx.setup;
  const size_t plan = s.inputs[s.report_input[0]].plan;
  ServiceConfig config;
  config.replay = SearchConfig(workers_per_shard, /*num_shards=*/2);
  config.queue_capacity = 64;
  config.per_tenant_cap = 16;
  config.snapshot_path.clear();
  Result<std::unique_ptr<ReplayService>> made =
      s.PipelineOf(plan).MakeService(s.plans[plan].plan, config);
  if (!made.ok()) {
    Fatal("making the service: " + made.error().ToString());
  }
  std::unique_ptr<ReplayService> service = made.take();
  {
    ScopedSpan span(tracer, "dist.fleet_start");
    const Clock::time_point t0 = Clock::now();
    const bool started = service->Start();
    out->fleet_start_s = SecondsSince(t0);
    const WireHealthStats health = service->HealthStats();
    span.Count("dist.fleet_live", health.fleet_live);
    if (!started || health.fleet_live != 2) {
      ctx.problems->push_back("the 2-shard fleet did not form");
    }
  }
  // The stream keeps experiment order whatever the seed: the shards keep
  // warm slice caches from one search to the next, so the order of the
  // reports changes how much each search has to solve.
  std::vector<u64> clusters(s.reports.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t r = 0; r < s.reports.size(); ++r) {
      ServiceVerdict verdict;
      {
        ScopedSpan span(tracer, pass == 0 ? "service.submit_search" : "service.submit_cached");
        const Clock::time_point t0 = Clock::now();
        verdict = service->Submit("perfbench", s.reports[r]);
        const double seconds = SecondsSince(t0);
        out->reproduce_s += seconds;
        (pass == 0 ? out->submit_search_s : out->submit_cached_s) += seconds;
        span.Count("replay.runs", verdict.result.stats.runs);
      }
      bool ok = verdict.origin == (pass == 0 ? VerdictOrigin::kFresh : VerdictOrigin::kCached);
      if (pass == 0) {
        clusters[r] = verdict.cluster;
        out->search.Add(verdict.result.stats);
        out->report_runs[r] = verdict.result.stats.runs;
      } else if (verdict.cluster != clusters[r]) {
        ok = false;
      }
      VerifyVerdict(ctx, tracer, r, verdict.result, out, &ok);
      ++out->attempted;
      if (!ok) {
        ++out->failed;
      }
    }
  }
  const WireHealthStats health = service->HealthStats();
  out->searches_run = health.searches_run;
  out->cached_verdicts = health.cached_verdicts;
  std::vector<u64> distinct = clusters;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  if (health.reports_ingested != 2 * s.reports.size() ||
      health.searches_run != distinct.size() || distinct.size() != s.reports.size() ||
      health.cached_verdicts != s.reports.size()) {
    ctx.problems->push_back("service accounting: " + std::to_string(health.reports_ingested) +
                            " ingested, " + std::to_string(health.searches_run) +
                            " searches for " + std::to_string(distinct.size()) +
                            " distinct crashes, " + std::to_string(health.cached_verdicts) +
                            " cached verdicts");
  }
  ScopedSpan span(tracer, "service.shutdown");
  service->Shutdown();
}

RoundResult RunRound(RunContext& ctx, Tracer& tracer) {
  RoundResult out;
  out.report_runs.assign(ctx.setup.reports.size(), 0);
  out.witnesses.assign(ctx.setup.reports.size(), {});
  ScopedSpan span(tracer, "bench.round");
  const Clock::time_point t0 = Clock::now();
  // Each user input is recorded and, when it crashed, its report is
  // reproduced right away, so user-site timings are spread over the round.
  // The service takes its reports as one stream after the user site.
  const bool fleet = ctx.workload.kind == Kind::kFleet;
  for (const size_t i : ctx.input_order) {
    RecordInput(ctx, tracer, i, &out);
    if (!fleet && ctx.setup.inputs[i].crashes) {
      ReproduceReport(ctx, tracer, ctx.setup.inputs[i].report, &out);
    }
  }
  if (fleet) {
    ServiceRound(ctx, tracer, /*workers_per_shard=*/1, &out);
  }
  out.wall_s = SecondsSince(t0);
  return out;
}

// ----- Probes (traced run only) ---------------------------------------------

struct ProbeResult {
  double concrete_minstr_per_s = 0.0;
  u64 concrete_instrs = 0;
  double shadow_minstr_per_s = 0.0;
  double solve_cold_us = 0.0;
  double solve_warm_us = 0.0;
};

ProbeResult RunProbes(RunContext& ctx, const RoundResult& last, Tracer& tracer) {
  Setup& s = ctx.setup;
  ProbeResult p;
  // Concrete execution with no observers, on every user input.
  {
    double seconds = 0.0;
    for (const size_t i : ctx.input_order) {
      ScopedSpan span(tracer, "exec.concrete");
      const Clock::time_point t0 = Clock::now();
      const CellRunOutput run = ctx.inputs[i].runner->Run(UserSiteConfig(s.inputs[i], nullptr, {}));
      seconds += SecondsSince(t0);
      p.concrete_instrs += run.result.stats.instrs;
      span.Count("exec.instrs", run.result.stats.instrs);
    }
    p.concrete_minstr_per_s = seconds > 0 ? p.concrete_instrs / seconds / 1e6 : 0.0;
  }
  // Shadow (symbolic-tracking) execution on each witness.
  {
    double seconds = 0.0;
    u64 instrs = 0;
    for (const size_t r : ctx.report_order) {
      if (last.witnesses[r].empty()) {
        continue;
      }
      const UserInput& input = s.inputs[s.report_input[r]];
      ExprArena arena;
      CellRunner runner(s.PipelineOf(input.plan).module(), s.reports[r].shape);
      CellRunConfig config;
      config.model = last.witnesses[r];
      config.arena = &arena;
      config.engine = ExecEngineKind::kDefault;
      ScopedSpan span(tracer, "exec.shadow");
      const Clock::time_point t0 = Clock::now();
      const CellRunOutput run = runner.Run(config);
      seconds += SecondsSince(t0);
      instrs += run.result.stats.instrs;
      span.Count("exec.instrs", run.result.stats.instrs);
    }
    p.shadow_minstr_per_s = seconds > 0 ? instrs / seconds / 1e6 : 0.0;
  }
  // Solver over constraint sets of a harvested frontier. A short harvest
  // leaves a few pendings; each pending's trace also yields the sibling
  // sets the search pops (its prefixes with the last constraint negated),
  // up to kProbeSets per report. Every set is solved against an empty slice
  // cache (cold), then again against a cache one untimed pass warmed. Every
  // model must satisfy its constraint set.
  constexpr size_t kProbeSets = 32;
  std::vector<double> cold_us;
  std::vector<double> warm_us;
  const ReplayConfig config = SearchConfig(1, 1);
  for (const size_t r : ctx.report_order) {
    const UserInput& input = s.inputs[s.report_input[r]];
    Pipeline& pipeline = s.PipelineOf(input.plan);
    const InstrumentationPlan& plan = s.plans[input.plan].plan;
    ExprArena harvest_arena;
    ReplayEngine engine(pipeline.module(), plan, s.reports[r], &harvest_arena);
    ReplayEngine::HarvestOutput harvest;
    {
      ScopedSpan span(tracer, "replay.harvest");
      harvest = engine.HarvestFrontier(config, /*max_runs=*/16, /*target_frontier=*/kProbeSets);
      span.Count("replay.runs", harvest.result.stats.runs);
      span.Count("replay.frontier", harvest.frontier.size());
    }
    struct ProbeSet {
      const PortablePending* pending;
      std::vector<Constraint> constraints;
    };
    ExprArena arena;
    std::vector<ProbeSet> sets;
    for (const PortablePending& pending : harvest.frontier) {
      if (sets.size() < kProbeSets) {
        sets.push_back({&pending, ImportConstraints(*pending.trace, pending.len,
                                                    pending.negate_last, &arena)});
      }
    }
    for (size_t k = 0; k < harvest.frontier.size() && sets.size() < kProbeSets; ++k) {
      const PortablePending& pending = harvest.frontier[k];
      const size_t siblings =
          std::min(kProbeSets - sets.size(), pending.len > 0 ? pending.len - 1 : 0);
      for (size_t j = 1; j <= siblings; ++j) {
        const size_t len = pending.len * j / (siblings + 1);
        if (len > 0) {
          sets.push_back({&pending, ImportConstraints(*pending.trace, len, true, &arena)});
        }
      }
    }
    const Solver checker(arena, config.solver);
    SliceCache warm(0);
    for (int pass = 0; pass < 3; ++pass) {
      // Pass 0: cold, pass 1: fills `warm` (untimed), pass 2: warm.
      for (const ProbeSet& set : sets) {
        SliceCache cold(0);
        IncrementalSolver solver(arena, config.solver, pass == 0 ? &cold : &warm);
        const ConstraintSpan span_view(set.constraints.data(), set.constraints.size());
        SolveResult solved;
        {
          ScopedSpan span(tracer, pass == 0   ? "solver.solve_cold"
                                  : pass == 1 ? "solver.solve_fill"
                                              : "solver.solve_warm");
          const Clock::time_point t0 = Clock::now();
          solved = solver.Solve(span_view, *set.pending->domains, *set.pending->seed);
          const double us = SecondsSince(t0) * 1e6;
          if (pass == 0) {
            cold_us.push_back(us);
          } else if (pass == 2) {
            warm_us.push_back(us);
          }
          span.Count("solver.constraints", set.constraints.size());
        }
        if (solved.status == SolveStatus::kSat && !checker.Satisfies(span_view, solved.model)) {
          ctx.problems->push_back("solver model does not satisfy its constraint set");
        }
      }
    }
  }
  p.solve_cold_us = Median(cold_us);
  p.solve_warm_us = Median(warm_us);
  return p;
}

// ----- Output ---------------------------------------------------------------

double PeakRssMb(bool with_children) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (with_children) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  u64 seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans;  // Required with --trace 1.
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  auto need = [&](int i) {
    if (i + 1 >= argc) {
      Fatal(std::string("missing value for ") + argv[i]);
    }
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = need(i);
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) {
        Fatal("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      o.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || o.seconds < 1 || o.seconds > 3600) {
        Fatal("--seconds takes an integer in [1, 3600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Fatal("--trace takes 0 or 1");
      }
      o.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans") {
      o.spans = value;
    } else {
      Fatal("unknown flag " + flag);
    }
  }
  if (o.workload.empty() || o.seconds == 0 || o.trace < 0 || (o.trace == 1 && o.spans.empty())) {
    Fatal("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]"
          " (--spans is required with --trace 1)");
  }
  return o;
}

// A RETRACE_* variable would silently change what is measured (engine,
// solver cache, worker counts, debug output), so none may be set.
void RefuseRetraceEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "RETRACE_", 8) == 0) {
      const char* eq = std::strchr(*env, '=');
      const std::string name(*env, eq == nullptr ? std::strlen(*env) : eq - *env);
      Fatal("refusing to run with " + name +
            " set: it would change what the benchmark measures; unset it");
    }
  }
}

int Main(int argc, char** argv) {
  RefuseRetraceEnvironment();
  const Options options = ParseArgs(argc, argv);
  const WorkloadInfo* workload = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (options.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    Fatal("unknown workload " + options.workload);
  }
  const bool traced = options.trace == 1;
  Tracer tracer(traced);
  Tracer off(false);

  // Set-up is a few milliseconds, so one sample is a snapshot of how fast
  // the host happens to be at that instant. It is sampled before the rounds
  // and again between rounds (at most once a second), and the median of all
  // samples is reported, so it sees the same host conditions as the rounds.
  std::vector<double> setup_s;
  auto build_setup = [&](Tracer& t) {
    const Clock::time_point t0 = Clock::now();
    Setup built = BuildSetup(workload->kind, options.seed, t);
    setup_s.push_back(SecondsSince(t0));
    return built;
  };
  Setup setup = build_setup(traced ? tracer : off);
  for (int rep = 1; !traced && rep < 3; ++rep) {
    build_setup(off);
  }
  Clock::time_point last_setup = Clock::now();

  std::vector<std::string> problems;
  std::vector<InputState> inputs = CheckUserSite(setup, &problems);
  SeedRng rng(options.seed);
  RunContext ctx{*workload, setup, inputs, Permutation(setup.inputs.size(), &rng), {},
                 &problems};
  for (const size_t i : ctx.input_order) {
    if (setup.inputs[i].crashes) {
      ctx.report_order.push_back(setup.inputs[i].report);
    }
  }

  // Whole rounds until --seconds have passed. The traced run alternates an
  // untraced and a traced round, so both see the same conditions.
  std::vector<RoundResult> plain_rounds;
  std::vector<RoundResult> traced_rounds;
  const Clock::time_point start = Clock::now();
  do {
    const bool trace_this = traced && plain_rounds.size() > traced_rounds.size();
    const double self_before = tracer.self_s();
    RoundResult round = RunRound(ctx, trace_this ? tracer : off);
    round.trace_self_s = tracer.self_s() - self_before;
    std::string runs;
    for (size_t r = 0; r < round.report_runs.size(); ++r) {
      runs += (r == 0 ? "" : "/") + std::to_string(round.report_runs[r]);
    }
    std::printf("round %zu%s: %.3f s (record %.4f s, reproduce %.3f s, runs %s)\n",
                plain_rounds.size() + traced_rounds.size(), trace_this ? " traced" : "",
                round.wall_s, round.record_s, round.reproduce_s, runs.c_str());
    (trace_this ? traced_rounds : plain_rounds).push_back(std::move(round));
    if (!traced && SecondsSince(last_setup) >= 1.0) {
      build_setup(off);
      last_setup = Clock::now();
    }
  } while (SecondsSince(start) < options.seconds ||
           (traced && traced_rounds.size() < plain_rounds.size()));

  // Searches use fixed seeds and one worker everywhere but the fleet, so
  // their run counts repeat exactly from round to round.
  u64 attempted = 0;
  u64 failed = 0;
  for (const auto* rounds : {&plain_rounds, &traced_rounds}) {
    for (const RoundResult& round : *rounds) {
      attempted += round.attempted;
      failed += round.failed;
      if (workload->kind != Kind::kFleet && round.report_runs != plain_rounds[0].report_runs) {
        problems.push_back("replay run counts differ between rounds");
      }
    }
  }

  // `field` is a member pointer or a function of one round.
  auto median_of = [](const std::vector<RoundResult>& rounds, auto field) {
    std::vector<double> values;
    for (const RoundResult& round : rounds) {
      values.push_back(std::invoke(field, round));
    }
    return Median(values);
  };

  u64 requests = 0;
  u64 log_bits = 0;
  u64 log_bytes = 0;
  u64 logged_execs = 0;
  u64 branch_execs = 0;
  for (size_t i = 0; i < setup.inputs.size(); ++i) {
    requests += setup.inputs[i].requests;
    log_bits += inputs[i].log_bits;
    log_bytes += (inputs[i].log_bits + 7) / 8;
    logged_execs += inputs[i].logged_execs;
    branch_execs += inputs[i].branch_execs;
  }

  std::vector<Metric> metrics;
  const bool fleet = workload->kind == Kind::kFleet;
  if (!traced) {
    std::printf("setup: %zu samples\n", setup_s.size());
    double setup_median = Median(setup_s);
    if (fleet) {
      setup_median += median_of(plain_rounds, &RoundResult::fleet_start_s);
    }
    metrics = {
        {"setup_s", setup_median, "s"},
        {"reproduce_s", median_of(plain_rounds, &RoundResult::reproduce_s),
         "s"},
        {"record_req_per_s",
         median_of(plain_rounds,
                   [](const RoundResult& r) { return r.requests / std::max(r.record_s, 1e-9); }),
         "req/s"},
        {"native_cpu_pct",
         100.0 + 100.0 * 3.0 * static_cast<double>(logged_execs) /
                     static_cast<double>(std::max<u64>(branch_execs, 1)),
         "%"},
        {"log_bytes_per_req", static_cast<double>(log_bytes) / static_cast<double>(requests),
         "B/req"},
        {"peak_rss_mb", PeakRssMb(fleet), "MB"},
    };
  } else {
    const RoundResult& t = traced_rounds.front();
    const ProbeResult probe = RunProbes(ctx, t, tracer);
    const SearchCounters& c = t.search;
    // The multi-worker scheduler (steals, fleet-wide dedup, cancellation)
    // is measured by one extra stream through a 2-shard x 2-worker fleet.
    SearchCounters multi;
    if (workload->kind == Kind::kFleet) {
      RoundResult probe_round;
      probe_round.report_runs.assign(setup.reports.size(), 0);
      probe_round.witnesses.assign(setup.reports.size(), {});
      ScopedSpan span(tracer, "service.multi_worker_probe");
      ServiceRound(ctx, tracer, /*workers_per_shard=*/2, &probe_round);
      multi = probe_round.search;
      if (probe_round.failed != 0) {
        problems.push_back("2-worker fleet probe: a submission failed");
      }
    } else {
      multi = c;
    }
    const double reproduce = median_of(traced_rounds, &RoundResult::reproduce_s);
    const u64 lookups = c.slices_solved + c.sat_hits + c.unsat_hits;
    u64 syscalls = 0;
    u64 syscall_log_bytes = 0;
    for (size_t i = 0; i < setup.inputs.size(); ++i) {
      const CellRunOutput run =
          inputs[i].runner->Run(UserSiteConfig(setup.inputs[i], nullptr, {}));
      syscalls += run.result.stats.syscalls;
      syscall_log_bytes += SyscallLogBytes(SyscallLogFromTrace(run.dyn_trace));
    }
    // Round k untraced ran right before round k traced, so the ratio of
    // each such pair cancels slow drift in the host's speed; the median
    // over pairs is the overhead. The tracer's own time inside the traced
    // rounds is reported beside it.
    std::vector<double> pair_ratios;
    for (size_t k = 0; k < traced_rounds.size(); ++k) {
      pair_ratios.push_back(traced_rounds[k].wall_s / plain_rounds[k].wall_s);
    }
    const double self_pct = 100.0 * median_of(traced_rounds, [](const RoundResult& r) {
                               return r.trace_self_s / r.wall_s;
                             });
    const SetupLayers& l = setup.layers;
    auto f = [](u64 v) { return static_cast<double>(v); };
    metrics = {
        {"lang.compile_s", l.compile_s, "s"},
        {"ir.branches", f(l.branches), "count"},
        {"concolic.analysis_s", l.concolic_s, "s"},
        {"concolic.runs", f(l.concolic_runs), "count"},
        {"analysis.static_s", l.static_s, "s"},
        {"instrument.plan_s", l.plan_s, "s"},
        {"instrument.plan_branches", f(l.plan_branches), "count"},
        {"instrument.record_s", median_of(traced_rounds, &RoundResult::record_s),
         "s"},
        {"instrument.log_bits", f(log_bits), "count"},
        {"exec.concrete_minstr_per_s", probe.concrete_minstr_per_s, "Minstr/s"},
        {"exec.instrs", f(probe.concrete_instrs), "count"},
        {"exec.shadow_minstr_per_s", probe.shadow_minstr_per_s, "Minstr/s"},
        {"vos.syscalls", f(syscalls), "count"},
        {"vos.syscall_log_bytes", f(syscall_log_bytes), "B"},
        {"solver.solve_cold_us", probe.solve_cold_us, "us"},
        {"solver.solve_warm_us", probe.solve_warm_us, "us"},
        {"solver.calls", f(c.solver_calls), "count"},
        {"solver.slices_solved", f(c.slices_solved), "count"},
        {"solver.sat_hits", f(c.sat_hits), "count"},
        {"solver.unsat_hits", f(c.unsat_hits), "count"},
        {"solver.hit_ratio", lookups == 0 ? 0.0 : f(c.sat_hits + c.unsat_hits) / f(lookups),
         "ratio"},
        {"replay.reproduce_s", reproduce, "s"},
        {"replay.runs", f(c.runs), "count"},
        {"replay.runs_per_s", t.reproduce_s > 0 ? f(c.runs) / t.reproduce_s : 0.0, "1/s"},
        {"replay.aborts_forced", f(c.aborts_forced), "count"},
        {"replay.aborts_mismatch", f(c.aborts_mismatch), "count"},
        {"replay.aborts_exhausted", f(c.aborts_exhausted), "count"},
        {"replay.pending_peak", f(c.pending_peak), "count"},
        {"replay.verify_s", median_of(traced_rounds, &RoundResult::verify_s),
         "s"},
        {"replay.steals", f(multi.steals), "count"},
        {"replay.dedup_skips", f(multi.dedup_skips), "count"},
        {"replay.cancelled_runs", f(multi.cancelled_runs), "count"},
        {"dist.fleet_start_s",
         median_of(traced_rounds, &RoundResult::fleet_start_s), "s"},
        {"dist.wire_bytes", f(c.wire_bytes), "B"},
        {"dist.verdicts_gossiped", f(c.verdicts_gossiped), "count"},
        {"dist.harvest_runs", f(c.harvest_runs), "count"},
        {"dist.pendings_rebalanced", f(c.pendings_rebalanced), "count"},
        {"dist.shards_lost", f(c.shards_lost), "count"},
        {"service.submit_search_s",
         median_of(traced_rounds, &RoundResult::submit_search_s), "s"},
        {"service.submit_cached_s",
         median_of(traced_rounds, &RoundResult::submit_cached_s), "s"},
        {"service.searches_run", f(t.searches_run), "count"},
        {"service.cached_verdicts", f(t.cached_verdicts), "count"},
        {"trace.overhead_pct", (Median(pair_ratios) - 1.0) * 100.0, "%"},
        {"trace.self_pct", self_pct, "%"},
        {"trace.spans", f(tracer.size()), "count"},
    };
    if (!tracer.Write(options.spans)) {
      Fatal("cannot write spans to " + options.spans);
    }
    std::printf("spans: %zu written to %s\n", tracer.size(), options.spans.c_str());
  }

  for (const std::string& problem : problems) {
    std::printf("check failed: %s\n", problem.c_str());
  }
  PrintResult(problems.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
