/**
 * @file
 * The traced run: the same requests as the untraced sweep, executed
 * serially by the driver itself, with a span around every call into a
 * layer and counters read at the same boundaries.
 *
 * Each request is set up the way harness::Runner::execute does it
 * (config merge, scenario compile, System, run, baselines, metrics),
 * so its RunResult must digest identically to the untraced one.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchmath.hh"
#include "workloads.hh"

namespace perfbench {

/** In-memory span list with a parent stack (single thread). */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name, int request = -1);
    /** Close span @p idx (the innermost open one). */
    void end(int idx);
    /** Duration of a closed span, seconds. */
    double seconds(int idx) const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What the traced run measured. */
struct TracedRun
{
    std::vector<gpump::harness::RunResult> results;
    SpanRecorder recorder;
    /** Wall seconds of the whole traced sweep (setup to results). */
    double wallSeconds = 0.0;

    /** @name Counters summed over requests @{ */
    std::uint64_t events = 0;
    std::uint64_t tbs = 0;         ///< CompletionObserver TB count
    std::uint64_t kernels = 0;     ///< CompletionObserver kernel count
    std::uint64_t contextTransfers = 0;
    std::uint64_t allocations = 0; ///< inside System::run only
    std::uint64_t queueSlotsPeak = 0;
    std::uint64_t swapIns = 0;
    std::uint64_t swapOuts = 0;
    double swapBytes = 0.0;
    std::uint64_t parkedEnd = 0;
    std::uint64_t baselines = 0;   ///< isolated replays computed
    /** @} */

    /** Sim-time request -> complete latency of every preemption, us. */
    std::vector<double> preemptLatencyUs;
    /** Per request: System::run seconds and observed TBs. */
    std::vector<double> runSeconds;
    std::vector<std::uint64_t> runTbs;
    /** Per columnKey: (System::run ns, observed TBs). */
    std::map<std::string, std::pair<double, std::uint64_t>> byColumn;

    /** Exec-path codec, measured on workloads with worker processes. */
    bool codecMeasured = false;
    double encodeUsPerResult = 0.0;
    double decodeUsPerResult = 0.0;
    double recordBytes = 0.0;
    /** Requests whose decode(encode(r)) digest differs from r's. */
    std::size_t codecMismatches = 0;
    double jsonlMs = 0.0;
};

/** Run @p wl under @p seed serially with tracing; the JSONL (when the
 *  workload writes one) goes to @p jsonl_path. */
TracedRun runTraced(const Workload &wl, std::uint64_t seed,
                    const std::string &jsonl_path);

/** Write @p spans as Chrome trace-event JSON (opens in Perfetto). */
void writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::string &workload);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
