"""Seeded inputs for the cmarks benchmark.

Every workload is a list of ops over the programs in programs/. An op is
one Scheme expression whose written answer is committed in
programs/expected.json; nothing here evaluates Scheme. The seed picks the
op order and each op's size (and, for serve, the arrival times); the
programs and the answer table stay fixed.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PROGRAM_DIR = os.path.join(HERE, "programs")

# Closed-loop op kinds: program -> the sized entries an op picks from.
# Sizes are matched so that every op costs about 1-2 ms on a warm engine;
# unsized, the section 8.4 applications differ by ~80x and the latency
# distribution turns bimodal. control's sizes spread each kind evenly over
# the same range, so that its latency distribution has no gap for the
# median to jump across when the host's speed changes.
APPS = {
    "activity-log": ["(app-main 200)", "(app-main 225)", "(app-main 250)"],
    "xsmith-lite": ["(app-main 10)", "(app-main 11)", "(app-main 12)"],
    "json-parsack": ["(app-main 11)", "(app-main 12)", "(app-main 13)"],
    "markdown": ["(app-main 14)", "(app-main 15)", "(app-main 16)"],
    "solver": ["(solve-chains 2 8)", "(solve-chains 3 8)",
               "(solve-chains 2 9)"],
    "contract-loop": ["(call-loop checked-id 3000)",
                      "(call-loop checked-id 3250)",
                      "(call-loop checked-id 3500)"],
    "wcm-loop": ["(wcm-loop 4500)", "(wcm-loop 5000)", "(wcm-loop 5500)"],
}

CONTROL = {
    "ctak": ["(ctak-rounds 4)", "(ctak-rounds 5)", "(ctak-rounds 6)",
             "(ctak-rounds 7)"],
    "effect-handlers": ["(eff-counter 170)", "(eff-counter 200)",
                        "(eff-counter 230)", "(eff-counter 260)",
                        "(eff-counter 290)"],
    "generator-pipeline": ["(pipeline 190)", "(pipeline 230)",
                           "(pipeline 270)", "(pipeline 310)",
                           "(pipeline 350)"],
    "amb-queens": ["(queens-rounds 3)", "(queens 6)", "(queens-rounds 5)",
                   "(queens-rounds 6)"],
    "triple": ["(triple-native 30)", "(triple-native 33)",
               "(triple-native 36)", "(triple-native 39)",
               "(triple-native 42)", "(triple-native 45)"],
    "deep-wcm": ["(deep-wcm 5000)", "(deep-wcm 6000)", "(deep-wcm 7000)",
                 "(deep-wcm 8000)", "(deep-wcm 9000)"],
}

# load: the small self-checked entry each program runs once after it is
# loaded into a fresh engine.
LOAD = {
    "activity-log": ["(app-main 20)"],
    "xsmith-lite": ["(app-main 1)"],
    "json-parsack": ["(app-main 1)"],
    "markdown": ["(app-main 2)"],
    "solver": ["(solve-chains 2 4)"],
    "contract-loop": ["(call-loop checked-id 200)"],
    "wcm-loop": ["(wcm-loop 300)"],
    "ctak": ["(ctak 6 4 2)"],
    "effect-handlers": ["(eff-counter 16)"],
    "generator-pipeline": ["(pipeline 20)"],
    "amb-queens": ["(queens 4)"],
    "triple": ["(triple-native 6)"],
    "deep-wcm": ["(deep-wcm 300)"],
}

# serve: job kinds of the open loop, as (weight, sources). Each source is
# a whole job: the pool compiles it per job. The weights put each reported
# percentile inside one tight cluster of jobs instead of in a gap between
# clusters, where it would jump from run to run: 40% of jobs need no wait,
# so p50 falls among the 1 ms waits, and the 3% "slow" jobs (a 6 ms
# backend wait) hold p99.
SERVE_CTAK = (
    "(define (ctak x y z) (call/cc (lambda (k) (ctak-aux k x y z))))"
    "(define (ctak-aux k x y z)"
    "  (if (not (< y x)) (k z)"
    "      (ctak-aux k"
    "        (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))"
    "        (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))"
    "        (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))")
SERVE_MARKS = (
    "(let loop ((i 0) (acc 0))"
    "  (if (= i {n}) acc"
    "      (with-continuation-mark 'k i"
    "        (loop (+ i 1)"
    "              (+ acc (car (continuation-mark-set->list"
    "                           (current-continuation-marks) 'k)))))))")
SERVE = {
    "sleep": (50, ["(begin (sleep-ms 1) (* 6 7))",
                  "(begin (sleep-ms 2) (* 6 8))",
                  "(begin (sleep-ms 3) (* 6 9))"]),
    "channel": (20, [
        "(let ((ch (make-channel)))"
        "  (spawn (lambda () (sleep-ms 1) (channel-put ch 'pong)))"
        "  (channel-get ch))",
        "(let ((ch (make-channel 2)))"
        "  (spawn (lambda () (channel-put ch 1) (channel-put ch 2)"
        "                   (channel-put ch 3)))"
        "  (+ (channel-get ch) (channel-get ch) (channel-get ch)))"]),
    "marks": (20, [SERVE_MARKS.format(n=n) for n in (60, 90, 120)]),
    "cpu": (10, [SERVE_CTAK + "(ctak 9 6 3)", SERVE_CTAK + "(ctak 8 5 2)"]),
    "slow": (3, ["(begin (sleep-ms 6) (* 7 7))"]),
}
SERVE_WORKERS = 3        # + the generator thread = 4 cores
SERVE_RATE_PER_S = 1500  # well under half of capacity; see README.md

# Fixed op-sequence lengths. Closed loops cycle through their sequence
# for the timed phase; count mode runs it exactly once.
SEQUENCE_LENGTH = 4096
COUNT_LENGTH = {"apps": 210, "control": 180, "load": 65}

WORKLOADS = ("apps", "control", "load", "serve")


def _load_expected():
    with open(os.path.join(PROGRAM_DIR, "expected.json")) as f:
        return json.load(f)


EXPECTED = _load_expected()


def program_source(name):
    with open(os.path.join(PROGRAM_DIR, name + ".scm")) as f:
        return f.read()


def kinds(workload):
    return {"apps": APPS, "control": CONTROL, "load": LOAD}[workload]


def expected(program, expr):
    try:
        return EXPECTED[program][expr]
    except KeyError:
        raise KeyError(f"no committed answer for {program}: {expr}")


def _rng(workload, seed):
    return random.Random(f"perfbench/{workload}/{seed}")


def op_sequence(workload, seed, length=SEQUENCE_LENGTH):
    """The seeded closed-loop op list: (program, expr) pairs."""
    table = kinds(workload)
    names = sorted(table)
    rng = _rng(workload, seed)
    ops = []
    for _ in range(length):
        name = rng.choice(names)
        ops.append((name, rng.choice(table[name])))
    return ops


def warm_ops(workload):
    """One warm op per op kind, run as part of every set-up."""
    if workload == "serve":
        return [("serve", SERVE["marks"][1][0])]
    table = kinds(workload)
    return [(name, table[name][0]) for name in sorted(table)]


def arrivals(seed, seconds, rate=SERVE_RATE_PER_S):
    """serve's open-loop schedule: (due_us, kind, source) with Poisson
    arrivals at `rate` per second over `seconds`."""
    rng = _rng("serve", seed)
    names = sorted(SERVE)
    weights = [SERVE[n][0] for n in names]
    out = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return out
        kind = rng.choices(names, weights)[0]
        out.append((int(t * 1e6), kind, rng.choice(SERVE[kind][1])))


def spec(workload, seed, seconds, mode, setups, trace_path=None):
    """The driver's stdin for one run (see driver.cpp for the format)."""
    lines = [f"workload\t{workload}", f"mode\t{mode}",
             f"seconds\t{seconds}", f"setups\t{setups}"]
    if trace_path:
        lines.append(f"trace\t{trace_path}")
    if workload == "serve":
        lines.append(f"workers\t{SERVE_WORKERS}")
        for _, src in warm_ops(workload):
            lines.append(f"warm\tserve\t{src}\t{expected('serve', src)}")
        for due, kind, src in arrivals(seed, seconds):
            lines.append(f"op\t{kind}\t{due}\t{src}\t{expected('serve', src)}")
        return "\n".join(lines) + "\n"
    chunks = ["\n".join(lines) + "\n"]
    for name in sorted(kinds(workload)):
        src = program_source(name)
        chunks.append(f"program\t{name}\t{len(src.encode())}\n{src}\n")
    length = COUNT_LENGTH[workload] if mode == "count" else SEQUENCE_LENGTH
    recs = [f"warm\t{n}\t{e}\t{expected(n, e)}" for n, e in warm_ops(workload)]
    recs += [f"op\t{n}\t0\t{e}\t{expected(n, e)}"
             for n, e in op_sequence(workload, seed, length)]
    chunks.append("\n".join(recs) + "\n")
    return "".join(chunks)
