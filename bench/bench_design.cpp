// Design-job bench: throughput and rate accuracy of the table-design job
// subsystem (src/jobs), with the checkpoint/resume determinism contract
// as a hard gate.
//
// Three measurements land in BENCH_design.json:
//   * design throughput — one uncontrolled design job end to end (analyze
//     -> anneal -> rate report -> publish), as SA iterations per second
//     and total job seconds. wirebench never runs a design job, so this
//     is the only place its speed is measured.
//   * rate accuracy — a second job with a bytes-per-image target derived
//     from the first job's achieved midpoint rate (x1.02, so the target
//     is reachable but tight). The job must land within 5% of target
//     (rate_ok, a hard gate — the acceptance criterion for the wire's
//     job-submit path, measured here without socket noise).
//   * checkpoint/resume determinism — a job paused mid-anneal via
//     anneal_limit and resumed from its checkpoint must produce the
//     byte-identical table (and cost trajectory) of an uninterrupted run
//     (resume_identical, a hard gate; test_jobs pins the same contract
//     at a smaller schedule).
//
// Usage: bench_design [sa_iterations] [per_class]
//   sa_iterations — annealing schedule length (default 120; CI smoke uses
//                   something small like 60)
//   per_class     — images per synthetic class, 8 classes (default 4)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "jobs/job_manager.hpp"

using namespace dnj;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Submits one job and blocks until it leaves the active states; exits
/// the bench non-zero on any unexpected terminal state.
jobs::JobStatus run_job(jobs::JobManager& manager, jobs::DesignJobSpec spec,
                        jobs::JobState want) {
  std::uint64_t id = 0;
  const jobs::JobRc rc = manager.submit(std::move(spec), 0, &id);
  if (rc != jobs::JobRc::kOk) {
    std::fprintf(stderr, "bench_design: submit refused: %s\n", jobs::job_rc_name(rc));
    std::exit(1);
  }
  jobs::JobStatus status;
  manager.wait(id, &status);
  if (status.state != want) {
    std::fprintf(stderr, "bench_design: job %llu ended %s (wanted %s): %s\n",
                 static_cast<unsigned long long>(id), jobs::job_state_name(status.state),
                 jobs::job_state_name(want), status.error.c_str());
    std::exit(1);
  }
  return status;
}

jobs::JobResult fetch_result(jobs::JobManager& manager, std::uint64_t id) {
  jobs::JobResult result;
  if (manager.result(id, &result) != jobs::JobRc::kOk) {
    std::fprintf(stderr, "bench_design: result() refused for job %llu\n",
                 static_cast<unsigned long long>(id));
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const int sa_iterations = argc > 1 ? std::atoi(argv[1]) : 120;
  const int per_class = argc > 2 ? std::atoi(argv[2]) : 4;

  data::GeneratorConfig gen;
  gen.seed = 0xDAC2018ULL;
  const data::Dataset dataset = data::SyntheticDatasetGenerator(gen).generate(per_class);

  core::SaConfig sa;
  sa.iterations = sa_iterations;

  auto make_spec = [&](const std::string& tenant) {
    jobs::DesignJobSpec spec;
    spec.dataset = dataset;
    spec.tenant = tenant;
    spec.sa = sa;
    return spec;
  };

  jobs::JobManagerConfig cfg;
  cfg.checkpoint_interval = 16;
  jobs::JobManager manager(cfg);

  // --- Design throughput: one uncontrolled job, wall clock end to end.
  const auto t0 = Clock::now();
  const jobs::JobStatus baseline = run_job(manager, make_spec("bench"),
                                           jobs::JobState::kCompleted);
  const double design_s = seconds_since(t0);
  const jobs::JobResult baseline_result = fetch_result(manager, baseline.id);

  // --- Rate accuracy: target 2% above the designed midpoint rate.
  const double target = baseline.achieved_bytes * 1.02;
  jobs::DesignJobSpec rate_spec = make_spec("bench-rate");
  rate_spec.target_bytes_per_image = target;
  const auto t1 = Clock::now();
  const jobs::JobStatus rated = run_job(manager, std::move(rate_spec),
                                        jobs::JobState::kCompleted);
  const double rate_s = seconds_since(t1);
  const jobs::JobResult rated_result = fetch_result(manager, rated.id);
  const bool rate_ok = rated.rate_error <= 0.05 && rated.achieved_bytes <= target;

  // --- Checkpoint/resume determinism: pause at half the schedule, resume
  // from the checkpoint, compare against an uninterrupted run.
  jobs::DesignJobSpec paused_spec = make_spec("bench-paused");
  paused_spec.anneal_limit = sa_iterations / 2;
  const jobs::JobStatus paused = run_job(manager, std::move(paused_spec),
                                         jobs::JobState::kPaused);
  const jobs::JobResult paused_result = fetch_result(manager, paused.id);

  jobs::DesignJobSpec resume_spec = make_spec("bench-resumed");
  resume_spec.checkpoint = paused_result.checkpoint;
  const jobs::JobStatus resumed = run_job(manager, std::move(resume_spec),
                                          jobs::JobState::kCompleted);
  const jobs::JobResult resumed_result = fetch_result(manager, resumed.id);
  const bool resume_identical =
      resumed_result.table == baseline_result.table &&
      resumed_result.best_cost == baseline_result.best_cost &&
      resumed_result.accepted_moves == baseline_result.accepted_moves &&
      resumed_result.checkpoint == baseline_result.checkpoint;

  const jobs::JobManagerStats stats = manager.stats();

  bench::JsonWriter out("BENCH_design");
  out.field("bench", "design");
  out.field("sa_iterations", sa_iterations);
  out.field("images", dataset.size());
  out.field("classes", dataset.num_classes);
  out.field("design_s", design_s);
  out.field("sa_iters_per_s", static_cast<double>(sa_iterations) / design_s);
  out.field("rate_search_s", rate_s);
  out.field("target_bytes_per_image", target);
  out.field("achieved_bytes_per_image", rated.achieved_bytes);
  out.field("rate_error", rated.rate_error);
  out.field("rate_quality", rated_result.quality);
  out.field("checkpoints_taken", static_cast<std::size_t>(stats.checkpoints));
  out.field("checkpoint_bytes", paused_result.checkpoint.size());
  out.field("ladder_rungs", static_cast<std::size_t>(stats.ladder_rungs));
  out.field("rate_ok", rate_ok);
  out.field("resume_identical", resume_identical);

  std::printf("bench_design: %d SA iters in %.3fs (%.1f iters/s), rate_error %.4f, "
              "resume_identical=%s\n",
              sa_iterations, design_s, sa_iterations / design_s, rated.rate_error,
              resume_identical ? "yes" : "no");
  std::printf("wrote %s\n", out.path().c_str());

  if (!rate_ok) {
    std::fprintf(stderr, "bench_design: rate gate failed: achieved %.1f vs target %.1f "
                 "(error %.4f)\n", rated.achieved_bytes, target, rated.rate_error);
    return 1;
  }
  if (!resume_identical) {
    std::fprintf(stderr, "bench_design: checkpoint/resume determinism gate failed\n");
    return 1;
  }
  return 0;
}
