//===- perfbench/driver.cpp - Benchmark driver for cmarks ------*- C++ -*-===//
///
/// \file
/// Runs one workload of the repository benchmark against the cmarks
/// library through its public API and prints raw measurements; run.py
/// generates the inputs, reads this output, and computes every metric.
///
/// Input (stdin), one tab-separated record per line:
///
///   workload <apps|control|load|serve>
///   mode     <run|count>   run: timed phase; count: fixed op sequence,
///                          split into reader / compiler / vm calls
///   seconds  <s>           length of the timed phase (run mode)
///   setups   <n>           set-ups to time before the measured phase
///   workers  <n>           serve: pool workers
///   trace    <path>        write spans as Chrome trace JSON at exit
///   program  <name> <nbytes>, then exactly nbytes of source and a newline
///   warm     <program> <expr> <expected>   one per op kind, run in set-up
///   op       <program> <due_us> <expr> <expected>
///
/// Output (stdout), tab-separated:
///
///   setup    <total_ns> <bootstrap_ns> <load_ns>      one per set-up
///   op       <program> <latency_ns> <ok> <lag_ns>     one per op
///   fail     <program> <expr> <what happened>
///   measured_ns <ns>   wall time of the measured phase
///   self     <span name> <ns>   summed self time (count mode, serve trace)
///   count    <name> <value>     work counts (count mode, serve)
///   rss_kb   <peak resident set>
///
/// Closed-loop workloads cycle through their op list until the timed
/// phase ends. serve submits each op at its due time (an open loop) and
/// times it from that due time to the moment its result is seen.
///
//===----------------------------------------------------------------------===//

#include "api/scheme.h"
#include "lib/prelude.h"
#include "reader/reader.h"
#include "runtime/heap.h"
#include "runtime/printer.h"
#include "support/pool.h"
#include "support/timing.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace cmk;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", Msg.c_str());
  std::exit(2);
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> Out;
  size_t Start = 0;
  for (;;) {
    size_t Tab = Line.find('\t', Start);
    Out.push_back(Line.substr(Start, Tab - Start));
    if (Tab == std::string::npos)
      return Out;
    Start = Tab + 1;
  }
}

struct Op {
  std::string Program;
  uint64_t DueUs = 0;
  std::string Expr;
  std::string Expected;
};

struct Spec {
  std::string Workload;
  std::string Mode = "run";
  double Seconds = 1;
  int Setups = 1;
  unsigned Workers = 3;
  std::string TracePath;
  std::map<std::string, std::string> Programs;
  std::vector<std::string> ProgramOrder;
  std::vector<Op> Warm;
  std::vector<Op> Ops;
};

Spec readSpec(std::istream &In) {
  Spec S;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    std::vector<std::string> F = splitTabs(Line);
    const std::string &Kw = F[0];
    auto Need = [&](size_t N) {
      if (F.size() != N)
        die("malformed record: " + Line);
    };
    if (Kw == "workload") {
      Need(2);
      S.Workload = F[1];
    } else if (Kw == "mode") {
      Need(2);
      S.Mode = F[1];
    } else if (Kw == "seconds") {
      Need(2);
      S.Seconds = std::stod(F[1]);
    } else if (Kw == "setups") {
      Need(2);
      S.Setups = std::stoi(F[1]);
    } else if (Kw == "workers") {
      Need(2);
      S.Workers = static_cast<unsigned>(std::stoul(F[1]));
    } else if (Kw == "trace") {
      Need(2);
      S.TracePath = F[1];
    } else if (Kw == "program") {
      Need(3);
      size_t N = std::stoul(F[2]);
      std::string Src(N, '\0');
      if (!In.read(Src.data(), static_cast<std::streamsize>(N)))
        die("truncated program " + F[1]);
      S.Programs[F[1]] = Src;
      S.ProgramOrder.push_back(F[1]);
    } else if (Kw == "warm") {
      Need(4);
      S.Warm.push_back({F[1], 0, F[2], F[3]});
    } else if (Kw == "op") {
      Need(5);
      S.Ops.push_back({F[1], std::stoull(F[2]), F[3], F[4]});
    } else {
      die("unknown record: " + Kw);
    }
  }
  // serve's jobs are whole sources; the closed loops run on programs.
  if (S.Workload != "serve")
    for (const std::vector<Op> *L : {&S.Warm, &S.Ops})
      for (const Op &O : *L)
        if (!S.Programs.count(O.Program))
          die("op for unknown program " + O.Program);
  if (S.Ops.empty() || S.Setups < 1 || S.Workers < 1)
    die("spec needs ops, setups >= 1 and workers >= 1");
  return S;
}

void printFail(const Op &O, const std::string &What) {
  static int Printed = 0;
  if (Printed++ < 20)
    std::printf("fail\t%s\t%s\t%s\n", O.Program.c_str(), O.Expr.c_str(),
                What.c_str());
}

/// Runs \p Source on \p E and checks its written value against \p O;
/// \p O.Expected empty means "any value".
bool checkedEval(SchemeEngine &E, const Op &O, const std::string &Source) {
  std::string Got = E.evalToString(Source);
  if (!E.ok()) {
    printFail(O, "error: " + E.lastError());
    return false;
  }
  if (!O.Expected.empty() && Got != O.Expected) {
    printFail(O, "got " + Got);
    return false;
  }
  return true;
}

// --- Spans ---------------------------------------------------------------

/// In-memory spans recorded around the benchmark's own calls into the
/// library. Spans nest on one thread; a span's self time is its duration
/// minus the time its direct children cover.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(nowNanos()) {}

  size_t begin(const char *Name, uint64_t OpId, const char *Program = "") {
    if (!On)
      return 0;
    Spans.push_back({Name, Program, OpId, nowNanos(), 0, 0});
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }
  void end(size_t Idx) {
    if (!On)
      return;
    Span &S = Spans[Idx];
    S.End = nowNanos();
    Open.pop_back();
    if (!Open.empty())
      Spans[Open.back()].ChildNs += S.End - S.Start;
  }
  /// An already-timed span with no children (serve's submit -> resolve).
  void add(const char *Name, uint64_t OpId, uint64_t Start, uint64_t End) {
    if (On)
      Spans.push_back({Name, "", OpId, Start, End, 0});
  }

  /// Summed self time per span name, over the spans of ops (set-up
  /// spans carry op id 0).
  std::map<std::string, uint64_t> selfTimes() const {
    std::map<std::string, uint64_t> Out;
    for (const Span &S : Spans)
      if (S.OpId != 0)
        Out[S.Name] += (S.End - S.Start) - S.ChildNs;
    return Out;
  }

  bool writeChrome(const std::string &Path, bool Async) const {
    std::ofstream F(Path);
    F << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool First = true;
    for (const Span &S : Spans) {
      double Ts = static_cast<double>(S.Start - Origin) / 1000.0;
      double Dur = static_cast<double>(S.End - S.Start) / 1000.0;
      char Buf[512];
      if (Async) {
        // Jobs overlap on the pool, so each is an async slice keyed by id.
        std::snprintf(Buf, sizeof Buf,
                      "{\"name\":\"%s\",\"cat\":\"job\",\"ph\":\"b\","
                      "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":1},\n"
                      "{\"name\":\"%s\",\"cat\":\"job\",\"ph\":\"e\","
                      "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":1}",
                      S.Name, static_cast<unsigned long long>(S.OpId), Ts,
                      S.Name, static_cast<unsigned long long>(S.OpId),
                      Ts + Dur);
      } else {
        std::snprintf(Buf, sizeof Buf,
                      "{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"op\":%llu,\"program\":\"%s\"}}",
                      S.Name, Ts, Dur,
                      static_cast<unsigned long long>(S.OpId), S.Program);
      }
      F << (First ? "" : ",\n") << Buf;
      First = false;
    }
    F << "\n]}\n";
    return static_cast<bool>(F);
  }

private:
  struct Span {
    const char *Name;
    const char *Program;
    uint64_t OpId;
    uint64_t Start, End;
    uint64_t ChildNs;
  };
  bool On;
  uint64_t Origin;
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

struct SpanScope {
  Tracer &T;
  size_t Idx;
  SpanScope(Tracer &T, const char *Name, uint64_t OpId,
            const char *Program = "")
      : T(T), Idx(T.begin(Name, OpId, Program)) {}
  ~SpanScope() { T.end(Idx); }
};

// --- Work counts ---------------------------------------------------------

struct Counts {
  VMStats Vm;
  uint64_t Ops = 0;
  uint64_t ReaderForms = 0, ReaderBytes = 0;
  uint64_t CompilerForms = 0, CodeBytes = 0;
  uint64_t AttachTail = 0, AttachNonTailCall = 0, AttachNonTailNoCall = 0,
           AttachFused = 0;
  uint64_t Collections = 0, BytesAllocated = 0, LiveBytesAfterGC = 0;
  uint64_t GcOps = 0;

  void addVm(const VMStats &D) {
    int N = 0;
    const StatsCounterDesc *Table = statsCounters(N);
    for (int I = 0; I < N; ++I)
      Vm.*(Table[I].Field) += D.*(Table[I].Field);
  }
  void addHeap(const HeapStats &Before, const HeapStats &After) {
    Collections += After.Collections - Before.Collections;
    BytesAllocated += After.BytesAllocated - Before.BytesAllocated;
    LiveBytesAfterGC = std::max(LiveBytesAfterGC, After.LiveBytesAfterLastGC);
  }

  void print() const {
    int N = 0;
    const StatsCounterDesc *Table = statsCounters(N);
    for (int I = 0; I < N; ++I)
      std::printf("count\tvm:%s\t%llu\n", Table[I].Name,
                  static_cast<unsigned long long>(Vm.*(Table[I].Field)));
    auto P = [](const char *Name, uint64_t V) {
      std::printf("count\t%s\t%llu\n", Name,
                  static_cast<unsigned long long>(V));
    };
    P("ops", Ops);
    P("reader.forms", ReaderForms);
    P("reader.bytes", ReaderBytes);
    P("compiler.forms", CompilerForms);
    P("compiler.code_bytes", CodeBytes);
    P("compiler.attach_tail", AttachTail);
    P("compiler.attach_nontail_call", AttachNonTailCall);
    P("compiler.attach_nontail_nocall", AttachNonTailNoCall);
    P("compiler.attach_fused", AttachFused);
    P("heap.collections", Collections);
    P("heap.bytes_allocated", BytesAllocated);
    P("heap.live_bytes_after_gc", LiveBytesAfterGC);
    P("heap.gc_ops", GcOps);
  }
};

/// Bytecode bytes of a code object and every code object in its
/// constants (the nested lambdas).
uint64_t codeBytes(Value Code) {
  if (!Code.isCode())
    return 0;
  CodeObj *C = asCode(Code);
  uint64_t Bytes = C->NumInstrs;
  for (uint32_t I = 0; I < C->NumConsts; ++I)
    Bytes += codeBytes(C->consts()[I]);
  return Bytes;
}

/// The split path through the public API that eval() takes as one call:
/// readAllFromString -> Compiler::compileToplevel -> SchemeEngine::apply,
/// with a span around each call. Returns false (after printing why) on an
/// error or a wrong answer; \p O.Expected empty means "any value".
bool runSplit(SchemeEngine &E, const Op &O, const std::string &Source,
              uint64_t OpId, Tracer &T, Counts *C) {
  Heap &H = E.heap();
  RootedValues Forms(H);
  std::string Err;
  {
    SpanScope S(T, "reader", OpId);
    std::vector<Value> Raw = readAllFromString(H, Source, &Err);
    for (Value V : Raw)
      Forms.push(V);
  }
  if (!Err.empty()) {
    printFail(O, "read error: " + Err);
    return false;
  }
  if (C) {
    C->ReaderForms += Forms.size();
    C->ReaderBytes += Source.size();
  }
  GCRoot Result(H, Value::voidValue());
  for (size_t I = 0; I < Forms.size(); ++I) {
    GCRoot Code(H, Value::undefined());
    {
      SpanScope S(T, "compiler", OpId);
      Code.set(E.compiler().compileToplevel(Forms[I], &Err));
    }
    if (!Err.empty()) {
      printFail(O, "compile error: " + Err);
      return false;
    }
    if (C) {
      const AttachPassStats &A = E.compiler().lastAttachStats();
      C->CompilerForms += 1;
      C->CodeBytes += codeBytes(Code.get());
      C->AttachTail += static_cast<uint64_t>(A.TailOps);
      C->AttachNonTailCall += static_cast<uint64_t>(A.NonTailWithCallOps);
      C->AttachNonTailNoCall += static_cast<uint64_t>(A.NonTailNoCallOps);
      C->AttachFused += static_cast<uint64_t>(A.FusedConsumeSet);
    }
    Code.set(H.makeClosure(Code.get(), 0));
    {
      SpanScope S(T, "vm", OpId);
      Result.set(E.apply(Code.get(), {}));
    }
    if (!E.ok()) {
      printFail(O, "error: " + E.lastError());
      return false;
    }
  }
  if (O.Expected.empty())
    return true;
  std::string Got = writeToString(Result.get());
  if (Got != O.Expected) {
    printFail(O, "got " + Got);
    return false;
  }
  return true;
}

EngineOptions splitEngineOptions() {
  EngineOptions Opts;
  Opts.LoadPrelude = false; // Loaded through runSplit instead.
  return Opts;
}

void printOp(const Op &O, uint64_t LatencyNs, bool Ok, uint64_t LagNs) {
  std::printf("op\t%s\t%llu\t%d\t%llu\n", O.Program.c_str(),
              static_cast<unsigned long long>(LatencyNs), Ok ? 1 : 0,
              static_cast<unsigned long long>(LagNs));
}

void printSetup(uint64_t Total, uint64_t Bootstrap, uint64_t Load) {
  std::printf("setup\t%llu\t%llu\t%llu\n",
              static_cast<unsigned long long>(Total),
              static_cast<unsigned long long>(Bootstrap),
              static_cast<unsigned long long>(Load));
}

// --- apps / control: warm engines, one per program -----------------------

using Engines = std::map<std::string, std::unique_ptr<SchemeEngine>>;

/// Builds one engine per program, loads its definitions and runs each
/// warm op. With \p C, the prelude, the definitions and the warm ops go
/// through runSplit under spans, and what they read and compile counts.
bool setUpEngines(const Spec &S, Engines &Out, Tracer &T, Counts *C,
                  uint64_t &BootstrapNs, uint64_t &LoadNs) {
  auto Run = [&](SchemeEngine &E, const Op &O, const std::string &Source) {
    return C ? runSplit(E, O, Source, 0, T, C) : checkedEval(E, O, Source);
  };
  Out.clear();
  BootstrapNs = LoadNs = 0;
  bool Ok = true;
  for (const std::string &Name : S.ProgramOrder) {
    Op Def{Name, 0, "(load " + Name + ")", ""};
    uint64_t T0 = nowNanos();
    {
      SpanScope Sp(T, "bootstrap", 0);
      Out[Name] = std::make_unique<SchemeEngine>(C ? splitEngineOptions()
                                                   : EngineOptions());
      if (C)
        Ok &= runSplit(*Out[Name], Def, preludeSource(), 0, T, C);
    }
    uint64_t T1 = nowNanos();
    {
      SpanScope Sp(T, "load", 0);
      Ok &= Run(*Out[Name], Def, S.Programs.at(Name));
    }
    BootstrapNs += T1 - T0;
    LoadNs += nowNanos() - T1;
  }
  uint64_t T2 = nowNanos();
  for (const Op &W : S.Warm) {
    SpanScope Sp(T, "load", 0);
    Ok &= Run(*Out.at(W.Program), W, W.Expr);
  }
  LoadNs += nowNanos() - T2;
  return Ok;
}

/// One load op: a fresh engine, the program's definitions, one entry.
bool loadOp(const Spec &S, const Op &O) {
  SchemeEngine E;
  E.eval(S.Programs.at(O.Program));
  if (!E.ok()) {
    printFail(O, "error: " + E.lastError());
    return false;
  }
  return checkedEval(E, O, O.Expr);
}

/// loadOp with every call split, spanned and counted.
bool loadOpSplit(const Spec &S, const Op &O, uint64_t OpId, Tracer &T,
                 Counts &C) {
  SchemeEngine E(splitEngineOptions());
  Op Def{O.Program, 0, "(load " + O.Program + ")", ""};
  bool Ok = runSplit(E, Def, preludeSource(), OpId, T, &C) &&
            runSplit(E, Def, S.Programs.at(O.Program), OpId, T, &C) &&
            runSplit(E, O, O.Expr, OpId, T, &C);
  C.addVm(E.stats());
  C.addHeap(HeapStats(), E.heap().stats());
  C.GcOps += E.heap().stats().Collections > 0 ? 1 : 0;
  return Ok;
}

/// One engine bootstrap, then one load op per op kind.
bool setUpLoad(const Spec &S, uint64_t &BootstrapNs, uint64_t &LoadNs) {
  uint64_t T0 = nowNanos();
  { SchemeEngine E; }
  uint64_t T1 = nowNanos();
  bool Ok = true;
  for (const Op &W : S.Warm)
    Ok &= loadOp(S, W);
  BootstrapNs = T1 - T0;
  LoadNs = nowNanos() - T1;
  return Ok;
}

/// Prints the spans' self times and writes them to the spec's trace path.
void printSpans(const Spec &S, const Tracer &T, bool Async) {
  for (auto &[Name, Ns] : T.selfTimes())
    std::printf("self\t%s\t%llu\n", Name.c_str(),
                static_cast<unsigned long long>(Ns));
  if (!S.TracePath.empty() && !T.writeChrome(S.TracePath, Async))
    die("cannot write " + S.TracePath);
}

uint64_t peakRssKb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<uint64_t>(RU.ru_maxrss);
}

/// One timed set-up; \p Warm receives the engines (unused by load).
bool timedSetUp(const Spec &S, Engines &Warm) {
  Tracer Off(false);
  uint64_t Boot = 0, Load = 0;
  uint64_t T0 = nowNanos();
  bool Ok = S.Workload == "load"
                ? setUpLoad(S, Boot, Load)
                : setUpEngines(S, Warm, Off, nullptr, Boot, Load);
  printSetup(nowNanos() - T0, Boot, Load);
  return Ok;
}

int runClosedLoop(const Spec &S) {
  bool IsLoad = S.Workload == "load";
  Engines Warm;
  if (S.Mode == "run") {
    // Timed phase: cycle through the op list until the ops have run for
    // the given time. The remaining set-ups are spread evenly over the
    // phase (and left out of its time), so that their median samples
    // the host's speed over the whole run rather than one moment of it.
    if (!timedSetUp(S, Warm))
      return 1;
    uint64_t Budget = static_cast<uint64_t>(S.Seconds * 1e9);
    uint64_t Every = Budget / static_cast<uint64_t>(S.Setups);
    uint64_t OpNs = 0, NextSetUp = Every;
    int SetUpsLeft = S.Setups - 1;
    for (size_t I = 0; OpNs < Budget; ++I) {
      if (SetUpsLeft > 0 && OpNs >= NextSetUp) {
        Engines Scratch;
        if (!timedSetUp(S, Scratch))
          return 1;
        NextSetUp += Every;
        --SetUpsLeft;
      }
      const Op &O = S.Ops[I % S.Ops.size()];
      uint64_t T0 = nowNanos();
      bool Ok = IsLoad ? loadOp(S, O)
                       : checkedEval(*Warm.at(O.Program), O, O.Expr);
      uint64_t Ns = nowNanos() - T0;
      OpNs += Ns;
      printOp(O, Ns, Ok, 0);
    }
    std::printf("measured_ns\t%llu\n", static_cast<unsigned long long>(OpNs));
    return 0;
  }

  // Count mode: one set-up and the fixed op sequence once, every call
  // split and spanned. Reader and compiler counts cover both; the VM and
  // heap counts cover the ops only (load's ops include their set-up).
  Tracer T(true);
  Counts C;
  if (!IsLoad) {
    uint64_t Boot = 0, Load = 0;
    SpanScope Sp(T, "setup", 0);
    if (!setUpEngines(S, Warm, T, &C, Boot, Load))
      return 1;
  }
  std::map<std::string, VMStats> VmBefore;
  std::map<std::string, HeapStats> HeapBefore;
  for (auto &[Name, E] : Warm) {
    VmBefore[Name] = E->stats();
    HeapBefore[Name] = E->heap().stats();
  }
  uint64_t Start = nowNanos();
  for (size_t I = 0; I < S.Ops.size(); ++I) {
    const Op &O = S.Ops[I];
    uint64_t T0 = nowNanos();
    bool Ok;
    {
      SpanScope Sp(T, "op", I + 1, O.Program.c_str());
      if (IsLoad) {
        Ok = loadOpSplit(S, O, I + 1, T, C);
      } else {
        SchemeEngine &E = *Warm.at(O.Program);
        uint64_t Gcs = E.heap().stats().Collections;
        Ok = runSplit(E, O, O.Expr, I + 1, T, &C);
        C.GcOps += E.heap().stats().Collections != Gcs ? 1 : 0;
      }
    }
    printOp(O, nowNanos() - T0, Ok, 0);
  }
  std::printf("measured_ns\t%llu\n",
              static_cast<unsigned long long>(nowNanos() - Start));
  for (auto &[Name, E] : Warm) {
    C.addVm(E->stats().delta(VmBefore[Name]));
    C.addHeap(HeapBefore[Name], E->heap().stats());
  }
  C.Ops = S.Ops.size();
  C.print();
  printSpans(S, T, /*Async=*/false);
  return 0;
}

// --- serve: fiber-mode EnginePool under an open loop --------------------

struct Pending {
  size_t Idx;
  uint64_t DueNs, SubmitNs;
  std::future<JobResult> Future;
};

bool checkJob(const Op &O, const JobResult &R) {
  if (R.Outcome != JobOutcome::Ok) {
    printFail(O, std::string(jobOutcomeName(R.Outcome)) + ": " + R.Error);
    return false;
  }
  if (R.Output != O.Expected) {
    printFail(O, "got " + R.Output);
    return false;
  }
  return true;
}

/// Builds a pool and waits until every worker has answered a warm job.
std::unique_ptr<EnginePool> setUpPool(const Spec &S, bool &Ok) {
  uint64_t T0 = nowNanos();
  PoolOptions PO;
  PO.Workers = S.Workers;
  PO.QueueCapacity = 1u << 16;
  PO.EnableFibers = true;
  auto Pool = std::make_unique<EnginePool>(PO);
  uint64_t T1 = nowNanos();
  std::set<uint32_t> Seen;
  for (int Round = 0; Seen.size() < S.Workers; ++Round) {
    if (Round == 200) {
      std::fprintf(stderr, "perfbench_driver: not every worker answered\n");
      Ok = false;
      break;
    }
    std::vector<std::pair<const Op *, std::future<JobResult>>> Fs;
    for (unsigned I = 0; I < S.Workers; ++I)
      for (const Op &W : S.Warm)
        Fs.emplace_back(&W, Pool->submit(W.Expr));
    for (auto &[W, F] : Fs) {
      JobResult R = F.get();
      Ok &= checkJob(*W, R);
      Seen.insert(R.Worker);
    }
  }
  uint64_t T2 = nowNanos();
  printSetup(T2 - T0, T1 - T0, T2 - T1);
  return Pool;
}

int runServe(const Spec &S) {
  // Every set-up runs before the measured phase (the last one builds the
  // pool it uses): set-ups during it would load the cores the measured
  // pool runs on.
  bool Ok = true;
  std::unique_ptr<EnginePool> Pool;
  for (int R = 0; R < S.Setups; ++R) {
    Pool.reset();
    Pool = setUpPool(S, Ok);
  }
  if (!Ok)
    return 1;

  Tracer T(!S.TracePath.empty());
  std::vector<Pending> Live;
  size_t Next = 0, Done = 0;
  uint64_t Start = nowNanos() + 2'000'000;
  uint64_t LastResolve = Start;
  auto Poll = [&](uint64_t Now) {
    for (size_t I = 0; I < Live.size();) {
      Pending &P = Live[I];
      if (P.Future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++I;
        continue;
      }
      const Op &O = S.Ops[P.Idx];
      JobResult R = P.Future.get();
      printOp(O, Now - P.DueNs, checkJob(O, R), P.SubmitNs - P.DueNs);
      T.add(O.Program.c_str(), P.Idx + 1, P.SubmitNs, Now);
      LastResolve = Now;
      ++Done;
      Live[I] = std::move(Live.back());
      Live.pop_back();
    }
  };
  // Give up on stragglers well before the caller's time limit.
  uint64_t GiveUp = Start + static_cast<uint64_t>(S.Seconds * 1e9) +
                    30'000'000'000ull;
  for (;;) {
    uint64_t Now = nowNanos();
    Poll(Now);
    if (Next < S.Ops.size()) {
      uint64_t Due = Start + S.Ops[Next].DueUs * 1000;
      if (Now >= Due) {
        uint64_t Sub = nowNanos();
        Live.push_back({Next, Due, Sub, Pool->submit(S.Ops[Next].Expr)});
        ++Next;
        continue;
      }
      uint64_t Wait = std::min<uint64_t>(Due - Now, 100'000);
      if (Wait > 20'000)
        std::this_thread::sleep_for(std::chrono::nanoseconds(Wait / 2));
      continue;
    }
    if (Done == S.Ops.size())
      break;
    if (Now > GiveUp) {
      std::fprintf(stderr, "perfbench_driver: %zu jobs never resolved\n",
                   Live.size());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  std::printf("measured_ns\t%llu\n",
              static_cast<unsigned long long>(LastResolve - Start));

  Pool->shutdown();
  PoolTelemetry Tel = Pool->telemetry();
  Counts C;
  C.addVm(Tel.Stats.Engines);
  C.Ops = S.Ops.size();
  C.print();
  auto P = [](const char *Name, double V) {
    std::printf("count\t%s\t%.6f\n", Name, V);
  };
  P("pool.queue_wait_ms_p50", Tel.QueueWaitUs.percentile(50) / 1000.0);
  P("pool.queue_wait_ms_p99", Tel.QueueWaitUs.percentile(99) / 1000.0);
  P("pool.run_ms_p50", Tel.RunUs.percentile(50) / 1000.0);
  P("pool.run_ms_p99", Tel.RunUs.percentile(99) / 1000.0);
  P("pool.jobs_not_ok",
    static_cast<double>(Tel.Stats.JobsSubmitted - Tel.JobsOk));
  printSpans(S, T, /*Async=*/true);
  return 0;
}

} // namespace

int main() {
  std::ios::sync_with_stdio(false);
  Spec S = readSpec(std::cin);
  int Rc;
  if (S.Workload == "serve")
    Rc = runServe(S);
  else if (S.Workload == "apps" || S.Workload == "control" ||
           S.Workload == "load")
    Rc = runClosedLoop(S);
  else
    die("unknown workload " + S.Workload);
  std::printf("rss_kb\t%llu\n", static_cast<unsigned long long>(peakRssKb()));
  std::fflush(stdout);
  return Rc;
}
