"""The classical decision experiments' forking and extraction as first written.

Each route here carries its own lazy-sampling stack loop and its own
query-counting oracle: the constant-round extraction prover keeps a wire
of forwarded messages and a response table, and the three-round routes
hand-code the challenge oracle with its slot. They are slow to read but
follow the provers' definitions step by step, and serve as the reference
that the old driver (``live_reference.fork`` over ``live_reference.replay``)
is tested against. The first four functions are the bodies of the
pipeline's former ``_fork_runs``, ``_extraction_run``, ``_response_runs``
and ``_single_slot_extraction``; the value functions after them are the
old experiment bodies on top of these forkers. ``schedule_value`` is the
constant-round decision value as its own pass over the live replays,
before the extraction prover's pass scored it too.
"""

from fractions import Fraction

from fold_reference import challenge_structure
from live_reference import NeedValue, live_runs, replay
from qromlab.transforms import _ordered_outcome, enumerate_schedules


def fork_runs(trace, ask_f, values, schedule=None, y=1):
    """All runs of a trace under lazily sampled oracle values.

    values lists (value, weight) pairs with rational weights; every
    fresh point forks the run and the replay is deterministic given
    the assignment. Returns (weight, assignment, slots, output) per
    completed branch.
    """
    done = []
    stack: list[tuple[Fraction, dict]] = [(Fraction(1), {})]
    while stack:
        weight, asg = stack.pop()
        try:
            slots, out, _ = replay(trace, ask_f, asg, schedule, y)
        except NeedValue as miss:
            for value, w in values:
                stack.append((weight * w, {**asg, miss.point: value}))
        else:
            done.append((weight, asg, slots, out))
    return done


def extraction_run(spec, x, trace, schedule, r) -> bool:
    """One deterministic run of the inline extraction prover.

    Measured points forward their fresh messages to the live verifier;
    responses received there answer the simulator's response queries;
    the measured point is flagged with the slot's timing. A message
    clash with the wire loses outright, as does an output transcript
    that contradicts it.
    """
    k = spec.rounds
    slot_of = {
        pick[0]: pick[1] for pick in schedule.picks if pick is not None
    }
    flags: dict = {}
    resp: dict = {}
    sent: list = []
    state = {"count": 0, "dead": False}

    def advance(point):
        for pos, m in enumerate(point):
            if pos < len(sent):
                if sent[pos] != m:
                    state["dead"] = True
                    return
            else:
                sent.append(m)
                if len(sent) < k:
                    resp[tuple(sent)] = spec.next_message(x, r, tuple(sent))

    def ask_h(point, drop=False):  # the true answer, dropped or not
        state["count"] += 1
        point = tuple(point)
        b = slot_of.get(state["count"])
        if b is None:
            return flags.get(point, 0)
        if not state["dead"]:
            advance(point)
        old = flags.get(point, 0)
        flags[point] = 1
        return 1 if b == 0 else old

    def ask_f(point):
        return resp.get(tuple(point), spec.alphabet[0])

    out = trace(ask_h, ask_f)
    if state["dead"]:
        return False
    for pos, m in enumerate(out):
        if pos < len(sent):
            if sent[pos] != m:
                return False
        else:
            sent.append(m)
    return len(sent) == k and spec.decide(x, r, tuple(sent))


def response_runs(spec, x, trace, sched, r_true, values):
    """Branches of one scheduled run over the lazy challenge table.

    The table assigns a randomness label to each queried point and the
    answer is that label's response; the slot answers with the live
    randomness when it reprograms first. Yields (weight, output,
    measured point, assignment) per branch.
    """
    slot_of = {pick[0]: pick[1] for pick in sched.picks if pick is not None}
    done = []
    stack: list[tuple[Fraction, dict]] = [(Fraction(1), {})]
    while stack:
        weight, asg = stack.pop()
        measured = [None]
        count = [0]

        def ask_c(point):
            count[0] += 1
            point = tuple(point)
            b = slot_of.get(count[0])
            if b is not None:
                measured[0] = point
                if b == 0:
                    return spec.next_message(x, r_true, point)
            if point not in asg:
                raise NeedValue(point)
            return spec.next_message(x, asg[point], point)

        try:
            out = trace(ask_c)
        except NeedValue as miss:
            for value, w in values:
                stack.append((weight * w, {**asg, miss.point: value}))
        else:
            done.append((weight, tuple(out), measured[0], asg))
    return done


def single_slot_extraction(spec, x, trace, scheds) -> Fraction:
    """Win rate of the prover that forwards the measured first message
    to the live verifier and answers the query with its response."""
    rs = spec.randomness
    values = [(r, Fraction(1, len(rs))) for r in rs]
    total = Fraction(0)
    for r in rs:
        for sched in scheds:
            slot_of = {
                pick[0]: pick[1] for pick in sched.picks if pick is not None
            }
            stack: list[tuple[Fraction, dict]] = [(Fraction(1), {})]
            while stack:
                weight, asg = stack.pop()
                sent: list = []
                dead = [False]
                count = [0]

                def ask_c(point):
                    count[0] += 1
                    point = tuple(point)
                    b = slot_of.get(count[0])
                    if b is not None:
                        if len(point) != 1:
                            dead[0] = True
                        elif not sent:
                            sent.append(point[0])
                        elif sent[0] != point[0]:
                            dead[0] = True
                        if b == 0 and not dead[0]:
                            return spec.next_message(x, r, point)
                    if point not in asg:
                        raise NeedValue(point)
                    return spec.next_message(x, asg[point], point)

                try:
                    out = trace(ask_c)
                except NeedValue as miss:
                    for value, w in values:
                        stack.append((weight * w, {**asg, miss.point: value}))
                    continue
                if dead[0] or (sent and sent[0] != out[0]):
                    continue
                if spec.decide(x, r, tuple(out)):
                    total += weight
    return total / (len(rs) * len(scheds))


def extraction_prover_value(spec, x, trace, scheds) -> Fraction:
    wins = 0
    for r in spec.randomness:
        for sched in scheds:
            wins += extraction_run(spec, x, trace, sched, r)
    return Fraction(wins, len(spec.randomness) * len(scheds))


def schedule_value(spec, x, trace, scheds) -> Fraction:
    wins = 0
    for r, slots, out in live_runs(spec, x, trace, scheds):
        _, got = _ordered_outcome(slots, out)
        if got is not None and len(got) == spec.rounds and spec.decide(x, r, got):
            wins += 1
    return Fraction(wins, len(spec.randomness) * len(scheds))


def sparse_hypothesis(spec, x, trace, eps) -> Fraction:
    eps = Fraction(eps)
    values = ((1, eps), (0, 1 - eps))
    k = spec.rounds
    total = Fraction(0)
    for r in spec.randomness:
        def ask_f(p):
            return spec.next_message(x, r, tuple(p))

        for weight, asg, _, out in fork_runs(trace, ask_f, values):
            if spec.decide(x, r, out) and all(
                asg.get(tuple(out[:i]), 0) == 1 for i in range(1, k + 1)
            ):
                total += weight
    return total / len(spec.randomness)


def hash_total(spec, x, trace) -> Fraction:
    """The public-coin experiment's per-statement value."""
    challenges, chart = challenge_structure(spec, x)
    values = [(c, Fraction(1, len(challenges))) for c in challenges]
    total = Fraction(0)
    for weight, asg, _, out in fork_runs(trace, None, values):
        c1 = asg.get((out[0],))
        if c1 is None:
            hits = sum(
                1 for c in challenges if spec.decide(x, chart[(c,)], out)
            )
            total += weight * Fraction(hits, len(challenges))
        elif spec.decide(x, chart[(c1,)], out):
            total += weight
    return total


def single_slot_value(spec, x, trace, scheds) -> Fraction:
    rs = spec.randomness
    values = [(r, Fraction(1, len(rs))) for r in rs]
    total = Fraction(0)
    for r in rs:
        for sched in scheds:
            for weight, out, measured, _ in response_runs(
                spec, x, trace, sched, r, values
            ):
                claim = measured if measured is not None else (out[0],)
                if len(claim) == 1 and spec.decide(x, r, (claim[0], out[1])):
                    total += weight
    return total / (len(rs) * len(scheds))


def fs_game_value(spec, x, trace) -> Fraction:
    rs = spec.randomness
    values = [(r, Fraction(1, len(rs))) for r in rs]
    blank = enumerate_schedules(1, 0)[0]
    total = Fraction(0)
    for weight, out, _, asg in response_runs(spec, x, trace, blank, rs[0], values):
        label = asg.get((out[0],))
        if label is None:
            hits = sum(1 for r in rs if spec.decide(x, r, out))
            total += weight * Fraction(hits, len(rs))
        elif spec.decide(x, label, out):
            total += weight
    return total
