#include "core/simulation.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "obs/flight_recorder.hh"
#include "obs/provenance.hh"

namespace vip
{

Simulation::Simulation(SocConfig cfg, Workload workload)
    : _cfg(std::move(cfg)), _wl(std::move(workload)), _sys(_cfg.seed),
      _auditor(_cfg.audit)
{
    for (const auto &app : _wl.apps)
        app.validate();
    if (_cfg.noProgressSec != 0.0 &&
        !isTickPeriodMs(_cfg.noProgressSec * 1e3))
        fatal("no-progress guard interval must be 0 (off) or a finite "
              "period of at least one tick (1e-9 ms), got ",
              _cfg.noProgressSec * 1e3, " ms");
    // Observability wiring happens before build() so every component
    // sees the pointers from its first tick.  Both objects are purely
    // observational: digests stay bit-identical with tracing on.
    _latency = std::make_unique<LatencyCollector>();
    _sys.setLatencyCollector(_latency.get());
    if (_cfg.trace.enabled()) {
        _tracer = std::make_unique<Tracer>(_cfg.trace.categories,
                                           _cfg.trace.bufferEvents);
        _sys.setTracer(_tracer.get());
    } else if (!_cfg.postmortemDir.empty()) {
        // The flight recorder wants a trace tail in its crash bundle:
        // run a small all-category ring even when the user asked for
        // no trace output.  Still digest-neutral (see tracer.hh).
        _tracer = std::make_unique<Tracer>(kAllTraceCats,
                                           std::size_t{32} << 10);
        _sys.setTracer(_tracer.get());
    }
    if (_cfg.prof.enabled()) {
        _profiler = std::make_unique<Profiler>(_cfg.prof);
        _sys.eventq().setProfiler(_profiler.get());
    }
    build();
    attachAuditors();
    buildStatsRegistry();
    // The sampler snapshots the registry's definitions at
    // construction, so it is built after buildStatsRegistry() -- and
    // its own ts.* stats, registered below, are therefore never part
    // of its selection.  Like prof.*, they only exist when armed, so
    // baseline stats files stay comparable.
    if (_cfg.ts.enabled()) {
        _ts = std::make_unique<TimeSeries>(_cfg.ts, _registry);
        TimeSeries *t = _ts.get();
        _registry.addExact("sim.steady.tick", "steady-state detection "
                           "time (-1 while undetected)", "ms",
                           [t] { return t->steadyTickMs(); });
        // stats.json carries the description, so it keeps its
        // wording: armed runs' dumps stay comparable across builds.
        _registry.addExact("ts.samples", "interval boundaries sampled "
                           "(pre-decimation)", "",
                           [t] { return double(t->samplesSeen()); });
    }
}

Simulation::~Simulation() = default;

void
Simulation::build()
{
    // One injector shared by every component keeps the fault
    // sequence a single deterministic stream.
    if (_cfg.fault.enabled())
        _faults = std::make_unique<FaultInjector>(_cfg.fault);

    _mem = std::make_unique<MemoryController>(
        _sys, "soc.mem", _cfg.dram, _ledger, _faults.get());
    _sa = std::make_unique<SystemAgent>(_sys, "soc.sa", _cfg.sa, *_mem,
                                        _ledger, _faults.get());
    _cpus = std::make_unique<CpuCluster>(_sys, "soc.cpu", _cfg.cpu,
                                         _cfg.cpuCores, _ledger);
    _stack = std::make_unique<SoftwareStack>(*_cpus, _cfg.drivers);
    _chains = std::make_unique<ChainManager>();

    // One hardware instance per IP kind the workload touches: this is
    // exactly the shared-resource contention the paper studies.
    std::set<IpKind> kinds;
    for (const auto &app : _wl.apps) {
        for (const auto &f : app.flows) {
            for (auto k : f.hwStages())
                kinds.insert(k);
        }
    }
    for (auto k : kinds) {
        auto [it, ok] = _ips.emplace(k, std::make_unique<IpCore>(
            _sys, std::string("soc.ip.") + ipKindName(k),
            _cfg.ipParamsFor(k), *_sa, _ledger, _faults.get()));
        // Flow ids are assigned densely below, so the id doubles as
        // an index into _flows.
        it->second->setDegradeNotifier(
            [this](FlowId f, std::uint64_t frame) {
                if (static_cast<std::size_t>(f) < _flows.size())
                    _flows[f]->noteDegraded(frame);
            });
    }

    PlatformRefs refs;
    refs.sys = &_sys;
    refs.cfg = &_cfg;
    refs.stack = _stack.get();
    refs.chains = _chains.get();
    refs.sa = _sa.get();
    refs.alloc = &_alloc;
    refs.ipFor = [this](IpKind k) { return ip(k); };

    // Small per-flow phase offsets de-synchronize the applications the
    // way independent app startup does on a real device.
    FlowId next = 0;
    for (const auto &app : _wl.apps) {
        for (const auto &f : app.flows) {
            Tick phase = (static_cast<Tick>(next) * fromMs(1.7)) %
                         f.period();
            _flows.push_back(std::make_unique<FlowRuntime>(
                refs, f, app.cls, next, phase,
                _cfg.recordTrace ? &_trace : nullptr));
            ++next;
        }
    }
}

void
Simulation::attachAuditors()
{
    // Attach order fixes the digest-stream component indices, so keep
    // it deterministic and stable: kernel, platform, flows.
    _auditor.attach("eventq", &_sys.eventq());
    _auditor.attach(_mem->name(), _mem.get());
    _auditor.attach(_sa->name(), _sa.get());
    _auditor.attach("soc.cpu", _cpus.get());
    _auditor.attach("soc.chains", _chains.get());
    for (auto &[kind, ip] : _ips)
        _auditor.attach(ip->name(), ip.get());
    if (_faults)
        _auditor.attach("fault", _faults.get());
    for (auto &f : _flows)
        _auditor.attach("flow." + f->spec().name, f.get());

    // Cross-component checks that no single Auditable owns.
    auto lastEnergy = std::make_shared<double>(0.0);
    _auditor.addCheck("energy", [this, lastEnergy](AuditContext &ctx) {
        double total = _ledger.totalNj();
        ctx.checkTrue("energy.monotone", total >= *lastEnergy,
                      "ledger total decreased between audits");
        ctx.checkTrue("energy.finite", std::isfinite(total),
                      "ledger total is not finite");
        *lastEnergy = total;
    });
    _auditor.addCheck("platform", [this](AuditContext &ctx) {
        // SA DMA traffic lands in DRAM accounting: the memory
        // controller can never have seen more transaction bytes than
        // crossed the SA plus CPU-free DMA (all traffic crosses the
        // SA in this platform, minus in-flight link payloads).
        std::uint64_t dram = _mem->bytesRead() + _mem->bytesWritten();
        ctx.checkLe("platform.dram_via_sa", dram,
                    _sa->bytesAccepted(),
                    "DRAM saw bytes that never crossed the SA");
    });
}

void
Simulation::buildStatsRegistry()
{
    // Component-owned stats: every SimObject hangs its counters under
    // its own prefix (ip.<kind>, dram, sa, cpu.<core>).
    for (SimObject *obj : _sys.objects())
        obj->registerStats(_registry);

    _latency->registerStats(_registry);

    // Per-flow QoS counters under flow.<id>.* — the dense flow id
    // rather than the spec name, which embeds '#' and '.'.
    for (const auto &fp : _flows) {
        const FlowRuntime *f = fp.get();
        std::string p = "flow." + std::to_string(f->id());
        _registry.addExact(p + ".generated",
                           "frames generated (" + f->spec().name + ")",
                           "frames",
                           [f] { return double(f->generatedFrames()); });
        _registry.addExact(p + ".completed", "frames completed",
                           "frames",
                           [f] { return double(f->completedFrames()); });
        _registry.addExact(p + ".violations", "QoS deadline misses",
                           "frames",
                           [f] { return double(f->violations()); });
        _registry.addExact(p + ".drops", "frames dropped (never "
                           "shown)", "frames",
                           [f] { return double(f->drops()); });
        _registry.addExact(p + ".frames_shed", "frames shed at the "
                           "chain head", "frames",
                           [f] { return double(f->shedFrames()); });
        _registry.addExact(p + ".admitted", "1 when admission let "
                           "the flow start", "bool",
                           [f] { return f->admitted() ? 1.0 : 0.0; });
        _registry.addExact(p + ".down_rated", "1 when admission "
                           "halved the target FPS", "bool",
                           [f] { return f->downRated() ? 1.0 : 0.0; });
    }

    // Overload-protection aggregates.
    _registry.addExact("overload.flows_rejected", "flows refused by "
                       "admission control", "flows", [this] {
                           double n = 0;
                           for (const auto &f : _flows)
                               n += f->admitted() ? 0 : 1;
                           return n;
                       });
    _registry.addExact("overload.flows_down_rated", "flows admitted "
                       "at reduced FPS", "flows", [this] {
                           double n = 0;
                           for (const auto &f : _flows)
                               n += f->downRated() ? 1 : 0;
                           return n;
                       });
    _registry.addExact("overload.frames_shed", "frames shed across "
                       "all flows", "frames", [this] {
                           double n = 0;
                           for (const auto &f : _flows)
                               n += double(f->shedFrames());
                           return n;
                       });
    _registry.addExact("overload.waiters", "chain acquisitions "
                       "waiting at end of run", "",
                       [this] { return double(_chains->waiters()); });

    // Fault-injection outcome (all zeros without an injector, so the
    // stats namespace is identical across configurations).
    const FaultInjector *fi = _faults.get();
    auto faultStat = [&](const char *leaf, const char *desc,
                         auto getter) {
        _registry.addExact(std::string("fault.") + leaf, desc, "",
                           [fi, getter] {
                               return fi ? getter(fi->stats()) : 0.0;
                           });
    };
    faultStat("engine_hangs", "injected engine hangs",
              [](const FaultStats &s) { return double(s.engineHangs); });
    faultStat("corruptions", "injected sub-frame corruptions",
              [](const FaultStats &s) { return double(s.corruptions); });
    faultStat("transfer_errors", "injected SA CRC errors",
              [](const FaultStats &s) {
                  return double(s.transferErrors);
              });
    faultStat("ecc_correctable", "injected correctable ECC events",
              [](const FaultStats &s) {
                  return double(s.eccCorrectable);
              });
    faultStat("ecc_uncorrectable", "injected uncorrectable ECC "
              "events",
              [](const FaultStats &s) {
                  return double(s.eccUncorrectable);
              });
    faultStat("watchdog_resets", "engine resets by watchdogs",
              [](const FaultStats &s) {
                  return double(s.watchdogResets);
              });
    faultStat("unit_retries", "work units recomputed",
              [](const FaultStats &s) { return double(s.unitRetries); });
    faultStat("transfer_retries", "SA retransmissions",
              [](const FaultStats &s) {
                  return double(s.transferRetries);
              });
    faultStat("frames_degraded", "frames past their retry budget",
              [](const FaultStats &s) {
                  return double(s.framesDegraded);
              });
    faultStat("recoveries", "units needing at least one retry",
              [](const FaultStats &s) { return double(s.recoveries); });

    // Energy by ledger category plus the platform total.
    for (const std::string &cat : _ledger.categories()) {
        _registry.addTiming("power." + cat + ".mj",
                            cat + " energy", "mJ", [this, cat] {
                                return _ledger.categoryNj(cat) * 1e-6;
                            });
    }
    _registry.addTiming("power.total.mj", "platform energy", "mJ",
                        [this] { return _ledger.totalNj() * 1e-6; });

    // Kernel / audit bookkeeping.
    _registry.addExact("sim.events_serviced", "event-queue callbacks "
                       "run", "events", [this] {
                           return double(_sys.eventq().servicedEvents());
                       });
    _registry.addTiming("sim.final_tick_ms", "simulated time at dump",
                        "ms",
                        [this] { return toMs(_sys.curTick()); });
    _registry.addExact("audit.passes", "invariant audit passes",
                       "",
                       [this] { return double(_auditor.auditPasses()); });
    _registry.addExact("audit.records", "digest-stream records", "",
                       [this] {
                           return double(
                               _auditor.stream().records.size());
                       });
    _registry.addExact("audit.violations", "invariant violations "
                       "collected", "", [this] {
                           return double(_auditor.violations().size());
                       });

    // Event-queue logical state: the live set is digest-covered and
    // survives checkpoint/restore bit for bit, so it is always
    // registered.
    _registry.addExact("sim.eventq.live", "live (pending) event ids",
                       "events", [this] {
                           return double(_sys.eventq().pending());
                       });

    // Profiler summary: only present when --prof is on, so baseline
    // stats files (profiler off) stay comparable.
    if (_profiler) {
        Profiler *p = _profiler.get();
        _registry.addExact("prof.events", "dispatches seen by the "
                           "profiler", "events",
                           [p] { return double(p->dispatches()); });
        _registry.addExact("prof.sampled", "dispatches with a "
                           "steady_clock sample", "events", [p] {
                               return double(p->sampledDispatches());
                           });
        _registry.addExact("prof.eventq.max_pending", "peak live-set "
                           "size at sample points", "events",
                           [p] { return double(p->maxPending()); });
        _registry.addExact("prof.eventq.max_heap", "peak heap size "
                           "at sample points", "events",
                           [p] { return double(p->maxHeap()); });
        for (std::size_t i = 0; i < kProfKindCatalogSize; ++i) {
            const char *kind = kProfKindCatalog[i];
            _registry.addExact(std::string("prof.kind.") + kind +
                               ".count", "dispatches of this kind",
                               "events", [p, kind] {
                                   return double(p->countFor(kind));
                               });
            _registry.addTiming(std::string("prof.kind.") + kind +
                                ".wall_ms", "sampled wall time in "
                                "this kind's callbacks", "ms",
                                [p, kind] {
                                    return p->wallNsFor(kind) * 1e-6;
                                });
        }
    }
}

void
Simulation::scheduleAudit()
{
    _auditEvent = _sys.eventq().scheduleIn(
        fromMs(_cfg.audit.periodMs), [this] { auditTick(); },
        EventPriority::Audit, "sim.audit");
}

void
Simulation::auditTick()
{
    _auditor.runAudit(_sys.curTick());
    scheduleAudit();
}

IpCore *
Simulation::ip(IpKind kind)
{
    auto it = _ips.find(kind);
    return it == _ips.end() ? nullptr : it->second.get();
}

void
Simulation::stopAppAt(const std::string &app_name, Tick when)
{
    vip_assert(!_ran, "stopAppAt must be scheduled before run()");
    // App names look like "VideoPlay#1" (instance-suffixed in
    // multi-app workloads) and their flow names like
    // "VideoPlay.video#1": match the prefix before the '#' plus the
    // instance suffix.
    std::string prefix = app_name;
    std::string suffix;
    auto hash = app_name.find('#');
    if (hash != std::string::npos) {
        prefix = app_name.substr(0, hash);
        suffix = app_name.substr(hash);
    }
    bool found = false;
    for (std::size_t i = 0; i < _flows.size(); ++i) {
        const std::string &n = _flows[i]->spec().name;
        bool prefixOk = n.rfind(prefix + ".", 0) == 0;
        bool suffixOk = suffix.empty() ||
            (n.size() >= suffix.size() &&
             n.compare(n.size() - suffix.size(), suffix.size(),
                       suffix) == 0);
        if (prefixOk && suffixOk) {
            found = true;
            _stopEvents.push_back({i, InvalidEventId, when});
        }
    }
    if (!found)
        fatal("stopAppAt: no flows belong to app '", app_name, "'");
    _stopIntents.push_back({app_name, when});
}

void
Simulation::scheduleStopEvents()
{
    // Scheduled at the top of run(), before the flows start, so the
    // event-id sequence is unchanged and the queue stays empty until
    // a restoring run loads its snapshot.
    for (StopEvent &s : _stopEvents) {
        FlowRuntime *fr = _flows[s.flow].get();
        s.id = _sys.eventq().schedule(s.when, [fr] { fr->stop(); },
                                      EventPriority::Default,
                                      "sim.stop");
    }
}

std::uint64_t
Simulation::retiredWork() const
{
    // Any sign of forward progress counts: a frame leaving a flow, a
    // sub-frame or job leaving an engine, a frame exiting a chain.
    // A wedged platform freezes *all* of these at once.
    std::uint64_t n = 0;
    for (const auto &f : _flows)
        n += f->completedFrames();
    for (const auto &[kind, ip] : _ips) {
        n += ip->subframesProcessed() + ip->jobsCompleted() +
             ip->framesExited();
    }
    return n;
}

std::size_t
Simulation::framesInFlight() const
{
    std::size_t n = 0;
    for (const auto &f : _flows)
        n += f->framesInFlight();
    return n;
}

std::string
Simulation::progressDump() const
{
    std::ostringstream os;
    os << "  eventq: " << _sys.eventq().pending() << " pending, tick "
       << _sys.curTick() << "\n";
    os << "  mem: " << _mem->inFlight() << " transactions in flight\n";
    for (const auto &f : _flows) {
        os << "  flow " << f->spec().name << ": "
           << f->framesInFlight() << " frames in flight, "
           << f->completedFrames() << " completed\n";
    }
    for (const auto &[kind, ip] : _ips)
        os << "  " << ip->debugState() << "\n";
    return os.str();
}

void
Simulation::checkProgress()
{
    std::uint64_t now = retiredWork();
    if (now == _lastRetired && framesInFlight() > 0) {
        fatal("no progress for ", _cfg.noProgressSec,
              " simulated seconds with frames in flight; the "
              "platform is wedged.  Occupancy:\n", progressDump());
    }
    _lastRetired = now;
    _progressEvent = _sys.eventq().scheduleIn(
        fromSec(_cfg.noProgressSec), [this] { checkProgress(); },
        EventPriority::Teardown, "sim.guard");
}

RunStats
Simulation::run()
{
    if (_ran) {
        fatal("Simulation::run() may only be called once; construct "
              "a fresh Simulation per run");
    }
    _ran = true;

    try {
        if (!_cfg.restorePath.empty()) {
            restoreFrom(_cfg.restorePath);
        } else {
            scheduleStopEvents();
            for (auto &f : _flows)
                f->start();
            if (_cfg.noProgressSec > 0.0) {
                _lastRetired = 0;
                _progressEvent = _sys.eventq().scheduleIn(
                    fromSec(_cfg.noProgressSec),
                    [this] { checkProgress(); },
                    EventPriority::Teardown, "sim.guard");
            }
            if (_cfg.audit.periodic())
                scheduleAudit();
        }
        // Open the CSV sink before the first event, so an unwritable
        // path fails fast instead of after a full run.
        if (_ts && !_cfg.ts.metricsOut.empty())
            _ts->streamCsv(_cfg.ts.metricsOut, _restored,
                           _sys.curTick());
        if (_profiler) {
            // Wall time of the event loop itself; everything outside
            // (build, stats dump) is deliberately excluded so the
            // sim-vs-wall figure reflects the hot path.
            auto w0 = std::chrono::steady_clock::now();
            runEventLoop(fromSec(_cfg.simSeconds));
            auto w1 = std::chrono::steady_clock::now();
            _profiler->setRunWallMs(
                std::chrono::duration<double, std::milli>(w1 - w0)
                    .count());
            _profiler->noteAllocCursor(_alloc.cursor());
        } else {
            runEventLoop(fromSec(_cfg.simSeconds));
        }
        // Sample up to the final tick.  Safe for interrupted runs:
        // their checkpoint was written from the hook before this
        // point, so a resumed run cuts these tail rows from the CSV
        // and samples the same boundaries again.
        if (_ts)
            _ts->finish(_sys.curTick());
        _ledger.closeAll(_sys.curTick());
        // Final audit pass under every enabled mode: catches
        // teardown-time leaks that a periodic pass between frames
        // cannot see.
        if (_cfg.audit.enabled())
            _auditor.runAudit(_sys.curTick());
    } catch (const SimFatal &e) {
        writePostmortem(e.what(), "fatal");
        throw;
    } catch (const SimPanic &e) {
        writePostmortem(e.what(), "panic");
        throw;
    }
    // An interrupted run's rates are judged over the time it actually
    // simulated, not the time it was asked for.
    return collect(_interrupted ? toSec(_sys.curTick())
                                : _cfg.simSeconds);
}

void
Simulation::runEventLoop(Tick limit)
{
    // The resume destinations -- --checkpoint-out, then the flight
    // recorder's ring next to its crash bundle -- share one cadence.
    // At the first quiescent point at or after each boundary the
    // state is serialized once and written to all of them, so a
    // SIGKILLed or crashed run resumes from there instead of from
    // zero.  The run's end gets no snapshot: it resumes no events.
    std::vector<std::string> resume;
    if (!_cfg.checkpointOut.empty())
        resume.push_back(_cfg.checkpointOut);
    if (!_cfg.postmortemDir.empty()) {
        resume.push_back((std::filesystem::path(_cfg.postmortemDir) /
                          "checkpoint.vips")
                             .string());
    }
    const Tick start = _sys.curTick();
    if (!resume.empty() && !isTickPeriodMs(_cfg.checkpointEveryMs))
        fatal("checkpoint cadence must be a finite period of at least "
              "one tick, got ", _cfg.checkpointEveryMs, " ms");
    const Tick period =
        resume.empty() ? 0 : fromMs(_cfg.checkpointEveryMs);
    Tick boundary =
        resume.empty() ? MaxTick : (start / period + 1) * period;
    bool resumeWritten = false;
    auto pendingSignal = [this] {
        return _cfg.interruptFlag
                   ? _cfg.interruptFlag->load(std::memory_order_relaxed)
                   : 0;
    };
    if (resume.empty() && _oneShots.empty() && !_cfg.interruptFlag &&
        !_ts) {
        _sys.run(limit);
        return;
    }

    auto hook = [&](Tick next) {
        // Graceful interrupt: stop at the first quiescent point, after
        // writing the resume destinations so the interrupted run
        // leaves a resumable trail.  One-shots are not written: each
        // holds the state of its own tick or nothing.  With no resume
        // destination there is nothing to write -- stop at once.
        if (int sig = pendingSignal(); sig != 0 && !_interrupted &&
                                       (resume.empty() || quiescent())) {
            if (!resume.empty()) {
                saveCheckpoint(resume);
                resumeWritten = true;
            }
            _interrupted = true;
            _interruptSig = sig;
            _sys.eventq().requestStop();
            return;
        }
        bool due = next >= boundary;
        for (const OneShot &o : _oneShots)
            due = due || next >= o.when;
        if (due && quiescent()) {
            if (next >= boundary) {
                saveCheckpoint(resume);
                resumeWritten = true;
                boundary = (next / period + 1) * period;
            }
            std::erase_if(_oneShots, [&](const OneShot &o) {
                if (next < o.when)
                    return false;
                saveCheckpoint({o.path});
                return true;
            });
        }
        // Sampling comes after any checkpoint write: a snapshot taken
        // here then counts only boundaries before `next`, and the
        // restored run samples the boundaries up to `next` itself,
        // exactly as the uninterrupted run does.  Detection arms the
        // one-shot --checkpoint-on-steady snapshot, which a later hook
        // writes at the first quiescent point.
        if (_ts) {
            _ts->observe(next);
            if (!_steadyPlanArmed && _ts->steadyDetected() &&
                !_cfg.ts.checkpointOnSteady.empty()) {
                _steadyPlanArmed = true;
                _oneShots.push_back({_cfg.ts.checkpointOnSteady,
                                     _ts->steadyTick()});
            }
        }
    };
    _sys.run(limit, hook);
    // A signal that never met a quiescent point (or landed after the
    // last event) still marks the run interrupted: the caller must
    // know the outputs cover less simulated time than asked for.
    if (int sig = pendingSignal(); sig != 0 && !_interrupted) {
        _interrupted = true;
        _interruptSig = sig;
    }
    // Say why a resume destination stayed empty: a killed run of
    // this cell restarts from zero.
    if (!resume.empty() && !resumeWritten) {
        std::string dests;
        for (const std::string &r : resume)
            dests += (dests.empty() ? "" : ", ") + r;
        const Tick passed = _sys.curTick() / period - start / period;
        if (passed == 0) {
            warn("checkpoint: the run ended before its first cadence "
                 "boundary (every ", _cfg.checkpointEveryMs,
                 " ms); no snapshot written to ", dests);
        } else {
            warn("checkpoint: ", passed,
                 passed == 1 ? " cadence boundary" : " cadence boundaries",
                 " (every ", _cfg.checkpointEveryMs, " ms) passed, but "
                 "the platform never reached a quiescent point after ",
                 passed == 1 ? "it" : "them", "; no snapshot written to ",
                 dests);
        }
    }
}

bool
Simulation::quiescent() const
{
    for (const auto &f : _flows) {
        if (!f->quiescent())
            return false;
    }
    if (!_mem->quiescent() || !_sa->quiescent() || !_cpus->quiescent())
        return false;
    for (const auto &[kind, ip] : _ips) {
        if (!ip->quiescent())
            return false;
    }
    return _chains->waiters() == 0 && _stack->totalQueued() == 0;
}

std::string
Simulation::auditSpecString() const
{
    std::ostringstream os;
    os << auditModeName(_cfg.audit.mode);
    if (_cfg.audit.periodic())
        os << ":" << _cfg.audit.periodMs;
    return os.str();
}

std::string
Simulation::identityString() const
{
    // Every knob that alters component behavior (and therefore the
    // meaning of serialized state) beyond config/workload/seed/
    // seconds.  Purely observational settings (trace, stats-out,
    // postmortem dir, checkpoint cadence) are deliberately absent: a
    // resume may change them freely.  The sampler's settings are
    // checked by its own snapshot section instead.
    std::ostringstream os;
    os << "overload=" << overloadPolicyName(_cfg.overloadPolicy)
       << " headroom=" << _cfg.admissionHeadroom
       << " shedAfter=" << _cfg.shedAfterLateFrames
       << " maxInFlight=" << _cfg.overloadMaxInFlight
       << " deadline=" << _cfg.deadlineFrames
       << " vsync=" << (_cfg.vsyncAligned ? 1 : 0) << "@"
       << _cfg.vsyncHz
       << " cpuCores=" << _cfg.cpuCores
       << " vipLanes=" << _cfg.vipLanes
       << " sched=" << schedPolicyName(_cfg.vipSched)
       << " laneBytes=" << _cfg.laneBytes
       << " subframeBytes=" << _cfg.subframeBytes
       << " csp=" << _cfg.contextSwitchPenalty
       << " spill=" << (_cfg.overflowToMemory ? 1 : 0)
       << " burst=" << _cfg.burstFrames << "/" << _cfg.gameBurstCap
       << "/" << (_cfg.enableRollback ? 1 : 0)
       << " noProgress=" << _cfg.noProgressSec
       << " recordTrace=" << (_cfg.recordTrace ? 1 : 0)
       << " stops=[";
    for (std::size_t i = 0; i < _stopIntents.size(); ++i) {
        os << (i ? "," : "") << _stopIntents[i].app << "@"
           << _stopIntents[i].when;
    }
    os << "]";
    return os.str();
}

SnapshotMeta
Simulation::checkpointMeta() const
{
    SnapshotMeta m;
    m.gitHash = buildGitHash();
    m.compiler = buildCompiler();
    m.buildType = buildType();
    m.configName = systemConfigName(_cfg.system);
    m.workloadName = _wl.name;
    m.seed = _cfg.seed;
    m.simSeconds = _cfg.simSeconds;
    m.faultPlan = _faults ? _cfg.fault.describe() : "";
    m.auditSpec = auditSpecString();
    m.extraIdentity = identityString();
    m.tick = _sys.curTick();
    m.stateDigest = _auditor.snapshotDigest();
    return m;
}

void
Simulation::saveCheckpoint(const std::vector<std::string> &paths)
{
    vip_assert(quiescent(),
               "saveCheckpoint at a non-quiescent point (tick ",
               _sys.curTick(), ")");
    SnapshotWriter w;
    StateIO io(w, _sys.eventq());
    stateIO(io);
    w.writeFile(paths, checkpointMeta());
    _checkpointsWritten += paths.size();
    _lastCheckpointPath = paths.back();
    _lastCheckpointTick = _sys.curTick();
}

void
Simulation::stateIO(StateIO &io)
{
    io.section("kernel", [&] {
        _sys.eventq().io(io);
        std::uint64_t rng = _sys.random().state();
        io.u64(rng);
        if (io.loading())
            _sys.random().setState(rng);
    });
    io.section("mem", [&] { _mem->io(io); });
    io.section("sa", [&] { _sa->io(io); });
    io.section("cpu", [&] { _cpus->io(io); });
    io.section("ips", [&] {
        io.shape("restore", "IP cores", _ips.size());
        for (auto &[kind, ip] : _ips) {
            io.expect("restore", "IP", ip->name());
            ip->io(io);
        }
    });
    // Flows before chains: chain restore re-creates every chain
    // through FlowRuntime::recreateChain(), which checks the chain id
    // the flow restored in its own section.
    io.section("flows", [&] {
        io.shape("restore", "flows", _flows.size());
        for (auto &f : _flows)
            f->io(io);
    });
    io.section("chains", [&] {
        _chains->io(
            io,
            [this](FlowId f) {
                vip_assert(static_cast<std::size_t>(f) < _flows.size(),
                           "chain restore references flow ", f);
                return _flows[f]->recreateChain();
            },
            [this](const std::string &n) -> IpCore * {
                for (auto &[kind, ip] : _ips) {
                    if (ip->name() == n)
                        return ip.get();
                }
                return nullptr;
            });
    });
    io.section("fault", [&] {
        if (io.presence("restore", "fault injector", _faults != nullptr))
            _faults->io(io);
    });
    io.section("auditor", [&] { _auditor.io(io); });
    io.section("latency", [&] { _latency->io(io); });
    io.section("energy", [&] { _ledger.io(io); });
    io.section("timeseries", [&] {
        if (io.presence("restore",
                        "sampler (--metrics-out/--checkpoint-on-steady)",
                        _ts != nullptr)) {
            io.b(_steadyPlanArmed);
            _ts->io(io);
        }
    });
    io.section("sim", [&] {
        std::uint64_t cursor = _alloc.cursor();
        io.u64(cursor);
        if (io.loading())
            _alloc.setCursor(cursor);
        io.u64(_lastRetired);
        io.event(_auditEvent, [this] { auditTick(); },
                 EventPriority::Audit, "sim.audit");
        io.event(_progressEvent, [this] { checkProgress(); },
                 EventPriority::Teardown, "sim.guard");
        io.shape("restore", "app-stop events (stopAppAt)",
                 _stopEvents.size());
        for (StopEvent &s : _stopEvents) {
            io.expect("restore", "app-stop flow",
                      static_cast<std::uint64_t>(s.flow));
            FlowRuntime *fr = _flows[s.flow].get();
            io.event(s.id, [fr] { fr->stop(); }, EventPriority::Default,
                     "sim.stop");
        }
        if (!io.presence("restore", "frame trace", _cfg.recordTrace))
            return;
        io.seq64(_trace.events(), "trace records", [&](FrameEvent &ev) {
            io.u32(ev.flowId);
            io.str(ev.flowName);
            io.u64(ev.frameId);
            io.tick(ev.generated);
            io.tick(ev.started);
            io.tick(ev.completed);
            io.tick(ev.deadline);
            io.b(ev.violated);
            io.b(ev.dropped);
        });
    });
}

bool
Simulation::steadySnapshotWritten() const
{
    return _steadyPlanArmed &&
           std::none_of(_oneShots.begin(), _oneShots.end(),
                        [this](const OneShot &o) {
                            return o.path == _cfg.ts.checkpointOnSteady;
                        });
}

void
Simulation::checkpointAt(Tick when, std::string path)
{
    vip_assert(!_ran, "checkpointAt must be armed before run()");
    _oneShots.push_back({std::move(path), when});
}

void
Simulation::restoreFrom(const std::string &path)
{
    SnapshotReader r(path);
    const SnapshotMeta &m = r.meta();
    auto check = [&](const char *what, const std::string &snap,
                     const std::string &run) {
        if (snap != run) {
            fatal("restore '", path, "': snapshot ", what, " '", snap,
                  "' does not match this run's '", run,
                  "' -- resumed state would silently diverge");
        }
    };
    check("git hash", m.gitHash, buildGitHash());
    check("compiler", m.compiler, buildCompiler());
    check("build type", m.buildType, buildType());
    check("config", m.configName, systemConfigName(_cfg.system));
    check("workload", m.workloadName, _wl.name);
    if (m.seed != _cfg.seed)
        fatal("restore '", path, "': snapshot seed ", m.seed,
              " != this run's ", _cfg.seed);
    if (m.simSeconds != _cfg.simSeconds)
        fatal("restore '", path, "': snapshot simulates ",
              m.simSeconds, " s, this run ", _cfg.simSeconds, " s");
    check("fault plan", m.faultPlan,
          _faults ? _cfg.fault.describe() : "");
    check("audit spec", m.auditSpec, auditSpecString());
    check("run knobs", m.extraIdentity, identityString());

    EventQueue &eq = _sys.eventq();
    StateIO io(r, eq);
    stateIO(io);

    eq.verifyRestore();
    std::uint64_t digest = _auditor.snapshotDigest();
    if (digest != m.stateDigest) {
        char a[32], b[32];
        std::snprintf(a, sizeof(a), "%016llx",
                      static_cast<unsigned long long>(digest));
        std::snprintf(b, sizeof(b), "%016llx",
                      static_cast<unsigned long long>(m.stateDigest));
        fatal("restore '", path, "': reloaded state digest 0x", a,
              " != snapshot header 0x", b,
              " -- the snapshot is corrupt or state was not restored "
              "faithfully");
    }
    // The snapshot already holds everything startup() would have
    // scheduled; suppress it for the coming run() call.
    _sys.markStarted();
    _restored = true;
    inform("restored checkpoint '", path, "': tick ", m.tick, " (",
           toMs(m.tick), " ms), ", eq.pending(), " pending events");
}

std::vector<std::pair<std::string, std::string>>
Simulation::runMeta() const
{
    return {
        { "config", systemConfigName(_cfg.system) },
        { "workload", _wl.name },
        { "seed", std::to_string(_cfg.seed) },
        { "seconds", std::to_string(_cfg.simSeconds) },
    };
}

void
Simulation::writeStatsJson(std::ostream &os) const
{
    _registry.writeJson(os, runMeta());
}

void
Simulation::writeProfJson(std::ostream &os) const
{
    vip_assert(_profiler, "writeProfJson() without --prof");
    _profiler->writeJson(os, toMs(_sys.curTick()), runMeta());
}

void
Simulation::writePostmortem(const std::string &reason,
                            const char *kind) noexcept
{
    if (_cfg.postmortemDir.empty())
        return;
    try {
        PostmortemInfo info;
        info.reason = reason;
        info.kind = kind;
        info.tick = _sys.curTick();
        // snapshotDigest() hashes component state directly, so it
        // works even under --audit=off.
        info.stateDigest = _auditor.snapshotDigest();
        if (_faults)
            info.faultPlan = _cfg.fault.describe();
        info.meta = runMeta();
        info.metricsPath = _cfg.ts.metricsOut;
        // Point at the newest snapshot of the checkpoint ring so the
        // bundle is resumable: rerun with --restore=<checkpointPath>.
        if (_checkpointsWritten > 0) {
            info.checkpointPath = _lastCheckpointPath;
            info.checkpointTick = _lastCheckpointTick;
        }
        writePostmortemBundle(_cfg.postmortemDir, info, &_registry,
                              _tracer.get());
    } catch (...) {
        // The original error is what the user needs to see; a broken
        // flight recorder must not replace it.
    }
}

RunStats
Simulation::collect(double seconds)
{
    RunStats r;
    r.configName = systemConfigName(_cfg.system);
    r.workloadName = _wl.name;
    r.seconds = seconds;

    // ---- energy ----
    r.cpuEnergyMj = _ledger.categoryNj("cpu") * 1e-6;
    r.dramEnergyMj = _ledger.categoryNj("dram") * 1e-6;
    r.saEnergyMj = _ledger.categoryNj("sa") * 1e-6;
    r.ipEnergyMj = _ledger.categoryNj("ip") * 1e-6;
    r.bufferEnergyMj = _ledger.categoryNj("buffer") * 1e-6;
    r.totalEnergyMj = _ledger.totalNj() * 1e-6;

    // ---- QoS / performance ----
    double flowTimeWeighted = 0.0;
    double transitWeighted = 0.0;
    double fpsSum = 0.0;
    std::uint32_t qosFlows = 0;
    bool anyQos = false;
    for (auto &f : _flows)
        anyQos |= f->spec().qosCritical;
    for (auto &f : _flows) {
        FlowResult fr = f->result(seconds);
        // Aggregate over the QoS-critical flows; when a workload has
        // none (pure audio), fall back to every flow so per-frame
        // metrics stay meaningful.
        if (fr.qosCritical || !anyQos) {
            r.framesGenerated += fr.generated;
            r.framesCompleted += fr.completed;
            r.violations += fr.violations;
            r.drops += fr.drops;
            r.framesShed += fr.shed;
            flowTimeWeighted +=
                fr.meanFlowTimeMs * static_cast<double>(fr.completed);
            transitWeighted +=
                fr.meanTransitMs * static_cast<double>(fr.completed);
            fpsSum += fr.achievedFps;
            ++qosFlows;
        }
        if (!fr.admitted)
            ++r.flowsRejected;
        else if (fr.fps != fr.nominalFps)
            ++r.flowsDownRated;
        r.flows.push_back(std::move(fr));
    }
    if (r.framesGenerated > 0) {
        r.shedRate = static_cast<double>(r.framesShed) /
                     static_cast<double>(r.framesGenerated);
    }
    if (r.framesCompleted > 0) {
        r.dropRate = static_cast<double>(r.drops) /
                     static_cast<double>(r.framesCompleted);
        r.violationRate = static_cast<double>(r.violations) /
                          static_cast<double>(r.framesCompleted);
        r.meanFlowTimeMs =
            flowTimeWeighted / static_cast<double>(r.framesCompleted);
        r.meanTransitMs =
            transitWeighted / static_cast<double>(r.framesCompleted);
        r.energyPerFrameMj =
            r.totalEnergyMj / static_cast<double>(r.framesCompleted);
    }
    if (qosFlows > 0)
        r.achievedFps = fpsSum / qosFlows;

    // ---- CPU ----
    r.interrupts = _cpus->totalInterrupts();
    r.interruptsPer100ms =
        seconds > 0.0 ? static_cast<double>(r.interrupts) /
                        (seconds * 10.0)
                      : 0.0;
    r.instructions = _cpus->totalInstructions();
    r.cpuActiveMs = toMs(_cpus->totalActiveTicks());
    if (r.framesCompleted > 0) {
        r.cpuActiveMsPerFrame =
            r.cpuActiveMs / static_cast<double>(r.framesCompleted);
    }
    Tick coreTicks = fromSec(seconds) * _cfg.cpuCores;
    if (coreTicks > 0) {
        r.cpuSleepFraction =
            static_cast<double>(_cpus->totalSleepTicks()) /
            static_cast<double>(coreTicks);
    }

    // ---- memory ----
    r.avgMemBandwidthGBps = _mem->averageBandwidthGBps();
    r.memBytesGB =
        static_cast<double>(_mem->bytesRead() + _mem->bytesWritten()) /
        (1024.0 * 1024.0 * 1024.0);
    r.fracTimeAbove80PctBw = _mem->fractionOfTimeAbove(0.8);
    std::uint64_t rowTotal = _mem->rowHits() + _mem->rowMisses();
    if (rowTotal > 0) {
        r.memRowHitRate = static_cast<double>(_mem->rowHits()) /
                          static_cast<double>(rowTotal);
    }

    r.saUtilization = _sa->utilization();

    // ---- IPs ----
    for (auto &[kind, ip] : _ips) {
        IpResult ir;
        ir.name = ipKindName(kind);
        ir.activeMs = toMs(ip->activeTicks());
        ir.stallMs = toMs(ip->stallTicks());
        ir.bpStallMs = toMs(ip->bpStallTicks());
        ir.utilization = ip->utilization();
        ir.dutyCycle = ip->dutyCycle();
        ir.laneOverflows = ip->laneOverflows();
        ir.creditStalls = ip->creditStalls();
        r.laneOverflows += ip->laneOverflows();
        ir.contextSwitches = ip->contextSwitches();
        ir.memBytes = _mem->bytesForRequester(
            static_cast<std::uint32_t>(kind));
        ir.watchdogResets = ip->watchdogResets();
        ir.unitRetries = ip->unitRetries();
        ir.framesDegraded = ip->framesDegraded();
        r.ips.push_back(std::move(ir));
    }

    if (_faults)
        r.faults = _faults->stats();

    r.auditPasses = _auditor.auditPasses();
    r.auditRecords = _auditor.stream().records.size();
    r.auditViolations = _auditor.violations().size();
    r.digestStreamHash =
        r.auditRecords > 0 ? _auditor.streamDigest() : 0;

    r.latency = _latency->summarize();

    if (_cfg.recordTrace)
        r.trace = _trace;
    return r;
}

RunStats
Simulation::run(SocConfig cfg, Workload workload)
{
    Simulation sim(std::move(cfg), std::move(workload));
    return sim.run();
}

} // namespace vip
