/**
 * @file
 * The in-process half of the benchmark: output references and the
 * traced per-layer run.
 *
 *   perfbench_layers reference PLAN JOBS
 *       Compute, through the library, the results every timed CLI call
 *       must reproduce.  Plan lines:
 *         model NAME OUT TRACE...   train serially (jobs 1), save OUT
 *         check MODEL TRACE PREFIX  replay under the checker; write
 *                                   PREFIX.txt (exit status, report
 *                                   count, classes) and PREFIX-NNN.json
 *                                   (the incident bundles)
 *         audit OUT TRACE...        the `audit --deep 1` stdout, to OUT
 *
 *   perfbench_layers trace PLAN JOBS SPANS [untraced]
 *       Repeat the workload's steps in process, in the order the CLI
 *       runs them, with a span around every call into a layer.  Plan
 *       lines:
 *         train NAME OUT TRACE...   serial lint, parallel decode/fold,
 *                                   summarize (as `train --trace`)
 *         replay MODEL TRACE        lint, decode/fold/check, finalize,
 *                                   bundles (as `replay --bundle-dir`)
 *         bundles MODEL TRACE       the same under a `bundles` root span,
 *                                   run only for its bundle exports
 *         audit TRACE...            parallel lint + flow (`audit --deep`)
 *         layers TRACE...           one layer at a time: decode loop,
 *                                   trace write, fold over decoded
 *                                   events, heap-graph updates and
 *                                   metric samples driven directly
 *         monitor MODEL BASE        MonitorSession in once mode
 *       Spans (name, start, end, parent, items) are kept in memory and
 *       written to SPANS as JSON at the end, with the counters the steps
 *       read off the library; one process is one run, so the file is
 *       the run id.  `untraced` runs the same steps without recording
 *       and writes only the wall time.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "analysis/flow_lint.hh"
#include "analysis/model_lint.hh"
#include "analysis/report.hh"
#include "analysis/trace_lint.hh"
#include "core/heapmd.hh"
#include "detector/classification.hh"
#include "detector/execution_checker.hh"
#include "diag/incident_bundle.hh"
#include "heapgraph/heap_graph.hh"
#include "metrics/metric_engine.hh"
#include "model/summarizer.hh"
#include "monitor/monitor.hh"
#include "runtime/call_stack.hh"
#include "runtime/process.hh"
#include "support/thread_pool.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/trace_writer.hh"

using namespace heapmd;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

// ---------------------------------------------------------------- spans

struct Span
{
    std::string name;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    long parent = -1;
    std::uint64_t items = 0;
};

/** All spans and counters of one run, shared by the worker threads. */
class Tracer
{
  public:
    bool enabled = false;

    long
    begin(const char *name, long parent)
    {
        if (!enabled)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, nowNs(), 0, parent, 0});
        return static_cast<long>(spans_.size()) - 1;
    }

    void
    end(long id, std::uint64_t items)
    {
        if (id < 0)
            return;
        const std::uint64_t t = nowNs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
        spans_[static_cast<std::size_t>(id)].items = items;
    }

    void
    count(const std::string &name, double value, bool keep_max = false)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        double &slot = counters_[name];
        slot = keep_max ? std::max(slot, value) : slot + value;
    }

    void
    write(std::ostream &os, std::uint64_t wall_ns) const
    {
        os.precision(17);
        os << "{\"wall_ns\": " << wall_ns << ", \"counters\": {";
        const char *sep = "";
        for (const auto &[name, value] : counters_) {
            os << sep << "\"" << name << "\": " << value;
            sep = ", ";
        }
        os << "}, \"spans\": [";
        sep = "\n";
        for (const Span &s : spans_) {
            os << sep << "[\"" << s.name << "\", " << s.start << ", "
               << s.end << ", " << s.parent << ", " << s.items << "]";
            sep = ",\n";
        }
        os << "]}\n";
    }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
};

Tracer g_tracer;

/** Innermost open span of this thread: the default parent. */
thread_local long t_current = -1;

/** A span for the lifetime of the object. */
class Scope
{
  public:
    explicit Scope(const char *name) : Scope(name, t_current) {}

    Scope(const char *name, long parent)
        : id_(g_tracer.begin(name, parent)), saved_(t_current)
    {
        if (id_ >= 0)
            t_current = id_;
    }

    ~Scope()
    {
        g_tracer.end(id_, items_);
        t_current = saved_;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    void items(std::uint64_t n) { items_ = n; }
    long id() const { return id_; }

  private:
    long id_;
    long saved_;
    std::uint64_t items_ = 0;
};

// ---------------------------------------------------------------- steps

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error(what);
}

void
requireClean(const analysis::Report &report, const std::string &what)
{
    if (!report.clean())
        fail(what + " failed its pre-flight audit:\n" +
             report.describe());
}

std::uint64_t
lintTrace(const std::string &path)
{
    Scope span("analysis.lint");
    analysis::Report report;
    const analysis::TraceLintStats stats =
        analysis::lintTraceFile(path, report);
    requireClean(report, "trace '" + path + "'");
    span.items(stats.events);
    return stats.events;
}

bool
isCapture(const std::string &path)
{
    trace::FileSource source(path);
    if (!source.ok())
        fail("cannot open trace '" + path + "'");
    return TraceReader(source).captureProvenance();
}

/** The replay config the CLI picks for a trace's provenance. */
ProcessConfig
replayConfig(bool capture)
{
    ProcessConfig config;
    config.metricFrequency = capture ? 1 : 300;
    config.tolerateAddressReuse = capture;
    return config;
}

/** `train --trace`'s per-trace replay (replayTraceForMetrics). */
MetricSeries
replayForMetrics(const std::string &path, std::uint64_t *events)
{
    trace::FileSource source(path);
    if (!source.ok())
        fail("cannot open trace '" + path + "'");
    TraceReader reader(source);
    Process process(replayConfig(reader.captureProvenance()));
    *events = replayTrace(reader, process);
    MetricSeries series = process.series();
    series.label = "trace:" + path;
    return series;
}

void
train(const std::string &name, const std::string &out,
      const std::vector<std::string> &traces, unsigned jobs,
      bool preflight)
{
    Scope root("train");
    std::uint64_t total = 0;
    if (preflight)
        for (const std::string &path : traces)
            lintTrace(path);

    std::vector<MetricSeries> runs(traces.size());
    std::vector<std::uint64_t> events(traces.size(), 0);
    {
        Scope pool("support.pool");
        parallelForIndexed(traces.size(), jobs, [&](std::size_t i) {
            Scope span("train.trace", pool.id());
            runs[i] = replayForMetrics(traces[i], &events[i]);
            span.items(events[i]);
        });
        for (std::uint64_t n : events)
            total += n;
        pool.items(total);
    }

    HeapMDConfig cfg;
    cfg.summarizer.includeLocallyStable = false;
    HeapModel model;
    {
        Scope span("model.build");
        MetricSummarizer summarizer(cfg.summarizer);
        for (const MetricSeries &series : runs)
            summarizer.addRun(series);
        model = summarizer.buildModel(name);
        span.items(runs.size());
    }
    std::ofstream os(out);
    model.save(os);
    if (!os)
        fail("cannot write '" + out + "'");
    root.items(total);
}

/** Outcome of one `replay`: what the CLI prints, exits with, saves. */
struct ReplayOutcome
{
    std::uint64_t events = 0;
    std::vector<std::string> classes;
    std::vector<std::string> bundles; //!< JSON documents, in order
};

ReplayOutcome
replay(const std::string &model_path, const std::string &path,
       const char *step = "replay")
{
    Scope root(step);
    {
        Scope span("analysis.model_lint");
        analysis::Report report;
        analysis::lintModelFile(model_path, report);
        requireClean(report, "model '" + model_path + "'");
    }
    lintTrace(path);
    HeapModel model;
    {
        std::ifstream in(model_path);
        model = HeapModel::load(in);
    }

    ReplayOutcome out;
    trace::FileSource source(path);
    TraceReader reader(source);
    Process process(replayConfig(reader.captureProvenance()));
    ExecutionChecker checker(model);
    checker.attach(process);
    {
        Scope span("replay.fold");
        out.events = replayTrace(reader, process);
        span.items(out.events);
    }
    CheckResult result;
    {
        Scope span("detector.finalize");
        result = checker.finalize(process);
        span.items(result.samplesChecked);
    }
    if (std::string(step) == "replay") {
        g_tracer.count("detector.samples_checked",
                       static_cast<double>(result.samplesChecked));
        g_tracer.count("detector.reports",
                       static_cast<double>(result.reports.size()));
    }
    for (const BugReport &report : result.reports) {
        Scope span("diag.bundle");
        const diag::IncidentBundle bundle = diag::makeIncidentBundle(
            report, process.registry(), process.series());
        std::ostringstream os;
        diag::saveIncidentBundle(bundle, os);
        out.bundles.push_back(os.str());
        out.classes.push_back(bugClassName(report.klass));
    }
    root.items(out.events);
    return out;
}

/** One trace's `audit --deep 1` stdout, formatted as the CLI does. */
std::string
auditOne(const std::string &path, bool *clean)
{
    Scope root("audit.trace");
    analysis::Report report;
    analysis::TraceLintStats stats;
    {
        Scope span("analysis.lint");
        stats = analysis::lintTraceFile(path, report);
        span.items(stats.events);
    }
    char line[512];
    std::snprintf(line, sizeof line,
                  "trace %s: %llu bytes, %llu events, %llu functions\n",
                  path.c_str(),
                  static_cast<unsigned long long>(stats.bytes),
                  static_cast<unsigned long long>(stats.events),
                  static_cast<unsigned long long>(stats.functions));
    std::string text = line;
    if (!report.has("trace.io")) {
        Scope span("analysis.flow");
        analysis::FlowAnalysis flow;
        const analysis::FlowLintStats fstats =
            analysis::lintTraceFlowFile(path, report, &flow);
        span.items(fstats.events);
        std::snprintf(
            line, sizeof line,
            "flow: %llu live object(s) at exit holding %llu "
            "byte(s)%s%s\n",
            static_cast<unsigned long long>(fstats.liveAtExit),
            static_cast<unsigned long long>(fstats.leakedBytes),
            fstats.captureProvenance ? " (live capture)" : "",
            fstats.sawFooter ? "" : " (truncated: leak check skipped)");
        text += line;
    }
    text += report.describe();
    *clean = report.clean();
    root.items(stats.events);
    return text;
}

std::string
audit(const std::vector<std::string> &traces, unsigned jobs,
      bool *all_clean)
{
    Scope pool("support.pool");
    std::vector<std::string> outputs(traces.size());
    std::vector<char> clean(traces.size(), 1);
    parallelForIndexed(traces.size(), jobs, [&](std::size_t i) {
        const long saved = t_current;
        t_current = pool.id();
        bool ok = true;
        outputs[i] = auditOne(traces[i], &ok);
        clean[i] = ok ? 1 : 0;
        t_current = saved;
    });
    std::string text;
    *all_clean = true;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        text += outputs[i];
        *all_clean = *all_clean && clean[i] != 0;
    }
    return text;
}

/** A stream buffer that accepts and drops everything. */
class NullBuf : public std::streambuf
{
  protected:
    int_type overflow(int_type c) override { return c; }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        return n;
    }
};

/** The per-layer passes over one trace, each layer on its own. */
void
layers(const std::string &path)
{
    Scope root("layers");
    const bool capture = isCapture(path);
    const ProcessConfig config = replayConfig(capture);

    std::uint64_t count = 0;
    {
        trace::FileSource source(path);
        TraceReader reader(source);
        Scope span("trace.decode");
        Event event;
        while (reader.next(event))
            ++count;
        span.items(count);
    }
    std::vector<Event> events;
    FunctionRegistry registry;
    {
        trace::FileSource source(path);
        TraceReader reader(source);
        events.reserve(count);
        Event event;
        while (reader.next(event))
            events.push_back(event);
        for (const std::string &name : reader.functionNames())
            registry.intern(name);
    }
    {
        NullBuf sink;
        std::ostream os(&sink);
        TraceWriterOptions options;
        options.captureProvenance = capture;
        Scope span("trace.write");
        TraceWriter writer(os, registry, options);
        Tick tick = 0;
        for (const Event &event : events)
            writer.onEvent(event, ++tick);
        writer.finish();
        span.items(events.size());
    }
    {
        Process process(config);
        Scope span("runtime.fold");
        for (const Event &event : events)
            process.onEvent(event);
        span.items(events.size());
    }

    // The heap-graph and metric layers driven directly: graph updates
    // are timed in runs between two metric points, each metric point
    // on its own.
    HeapGraph graph;
    CallStack stack;
    std::uint64_t updates = 0;
    std::uint64_t entries = 0;
    std::uint64_t samples = 0;
    std::uint64_t segment = 0;
    Tick tick = 0;
    long open = g_tracer.begin("heapgraph.update", root.id());
    for (const Event &event : events) {
        ++tick;
        switch (event.kind) {
          case EventKind::Alloc: {
            std::uint64_t size = event.size;
            if (config.tolerateAddressReuse) {
                size = std::max<std::uint64_t>(size, 1);
                graph.freeOverlapping(event.addr, size, kNullAddr);
            }
            graph.allocate(event.addr, size, stack.top(), tick);
            ++segment;
            break;
          }
          case EventKind::Free:
            graph.free(event.addr);
            ++segment;
            break;
          case EventKind::Realloc:
            if (config.tolerateAddressReuse && event.size != 0)
                graph.freeOverlapping(event.value, event.size,
                                      event.addr);
            graph.reallocate(event.addr, event.value, event.size,
                             stack.top(), tick);
            ++segment;
            break;
          case EventKind::Write:
            graph.write(event.addr, event.value);
            ++segment;
            break;
          case EventKind::Read:
            break;
          case EventKind::FnEnter:
            stack.push(event.fn);
            if (++entries % config.metricFrequency == 0) {
                g_tracer.end(open, segment);
                updates += segment;
                segment = 0;
                {
                    Scope span("metrics.sample", root.id());
                    const MetricSample sample =
                        MetricEngine::sample(graph, tick, samples++);
                    span.items(sample.vertexCount);
                }
                g_tracer.count("heapgraph.peak_vertices",
                               static_cast<double>(graph.vertexCount()),
                               true);
                g_tracer.count("heapgraph.peak_edges",
                               static_cast<double>(graph.edgeCount()),
                               true);
                open = g_tracer.begin("heapgraph.update", root.id());
            }
            break;
          case EventKind::FnExit:
            stack.pop(event.fn);
            break;
        }
    }
    g_tracer.end(open, segment);
    updates += segment;
    g_tracer.count("heapgraph.peak_vertices",
                   static_cast<double>(graph.vertexCount()), true);
    g_tracer.count("heapgraph.peak_edges",
                   static_cast<double>(graph.edgeCount()), true);
    g_tracer.count("runtime.events", static_cast<double>(events.size()));
    g_tracer.count("runtime.heap_updates", static_cast<double>(updates));
    g_tracer.count("metrics.samples", static_cast<double>(samples));
    root.items(events.size());
}

void
monitorOnce(const std::string &model_path, const std::string &base)
{
    std::ifstream in(model_path);
    const HeapModel model = HeapModel::load(in);
    monitor::MonitorOptions options;
    options.segmentsBase = base;
    options.follow = false;
    monitor::MonitorSession session(model, options);
    Scope span("monitor.once");
    std::string error;
    if (!session.run(error))
        fail("monitor of '" + base + "' failed: " + error);
    span.items(session.stats().events);
}

// ---------------------------------------------------------------- plans

using Line = std::vector<std::string>;

std::vector<Line>
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fail("cannot read plan '" + path + "'");
    std::vector<Line> lines;
    std::string text;
    while (std::getline(in, text)) {
        std::istringstream words(text);
        Line line;
        for (std::string word; words >> word;)
            line.push_back(word);
        if (!line.empty())
            lines.push_back(std::move(line));
    }
    return lines;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary);
    os << text;
    if (!os)
        fail("cannot write '" + path + "'");
}

void
runReference(const std::vector<Line> &plan, unsigned jobs)
{
    std::vector<const Line *> models, checks, audits;
    for (const Line &line : plan) {
        if (line[0] == "model" && line.size() >= 4)
            models.push_back(&line);
        else if (line[0] == "check" && line.size() == 4)
            checks.push_back(&line);
        else if (line[0] == "audit" && line.size() >= 3)
            audits.push_back(&line);
        else
            fail("bad reference plan line '" + line[0] + "'");
    }
    parallelForIndexed(models.size(), jobs, [&](std::size_t i) {
        const Line &l = *models[i];
        train(l[1], l[2], Line(l.begin() + 3, l.end()), 1, false);
    });
    parallelForIndexed(checks.size(), jobs, [&](std::size_t i) {
        const Line &l = *checks[i];
        const ReplayOutcome out = replay(l[1], l[2]);
        std::ostringstream text;
        text << "exit " << (out.bundles.empty() ? 0 : 3) << "\n"
             << "events " << out.events << "\n"
             << "reports " << out.bundles.size() << "\n";
        for (const std::string &klass : out.classes)
            text << "class " << klass << "\n";
        writeFile(l[3] + ".txt", text.str());
        for (std::size_t b = 0; b < out.bundles.size(); ++b) {
            char suffix[32];
            std::snprintf(suffix, sizeof suffix, "-%03zu.json", b + 1);
            writeFile(l[3] + suffix, out.bundles[b]);
        }
    });
    for (const Line *line : audits) {
        bool clean = true;
        const std::string text =
            audit(Line(line->begin() + 2, line->end()), jobs, &clean);
        writeFile((*line)[1], text);
        writeFile((*line)[1] + ".exit", clean ? "0\n" : "3\n");
    }
}

void
runTrace(const std::vector<Line> &plan, unsigned jobs)
{
    for (const Line &line : plan) {
        const std::string &op = line[0];
        if (op == "train" && line.size() >= 4) {
            train(line[1], line[2], Line(line.begin() + 3, line.end()),
                  jobs, true);
        } else if ((op == "replay" || op == "bundles") &&
                   line.size() == 3) {
            replay(line[1], line[2], op.c_str());
        } else if (op == "audit" && line.size() >= 2) {
            bool clean = true;
            audit(Line(line.begin() + 1, line.end()), jobs, &clean);
        } else if (op == "layers" && line.size() >= 2) {
            for (std::size_t i = 1; i < line.size(); ++i)
                layers(line[i]);
        } else if (op == "monitor" && line.size() == 3) {
            monitorOnce(line[1], line[2]);
        } else {
            fail("bad trace plan line '" + op + "'");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 3 && args[0] == "reference") {
            runReference(readPlan(args[1]),
                         static_cast<unsigned>(std::stoul(args[2])));
            return 0;
        }
        if ((args.size() == 4 || args.size() == 5) &&
            args[0] == "trace") {
            g_tracer.enabled = args.size() == 4;
            const std::uint64_t start = nowNs();
            runTrace(readPlan(args[1]),
                     static_cast<unsigned>(std::stoul(args[2])));
            const std::uint64_t wall = nowNs() - start;
            std::ofstream os(args[3]);
            g_tracer.write(os, wall);
            return os ? 0 : 1;
        }
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_layers: %s\n", error.what());
        return 1;
    }
    std::fprintf(stderr,
                 "usage: perfbench_layers reference PLAN JOBS\n"
                 "       perfbench_layers trace PLAN JOBS SPANS "
                 "[untraced]\n");
    return 2;
}
