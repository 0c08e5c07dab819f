"""Seeded workload generator: four update streams over the program zoo.

Everything the engine receives is produced here from ``--seed``; the engine
itself never sees the seed.  Every generated operation goes through one
:class:`LiveTables` per program, which tracks the live match keys of every
canonical table *including* the initial config and the route preload, so a
MODIFY/DELETE always hits a live key and an INSERT always a fresh one —
no operation of a generated stream can fail on a correct engine.

A workload has a *shape* and *contents*.  The shape — which tables, in
which order, insert or delete, which live slot is deleted, how long each
burst is, whether an ACL key is a wildcard, an exact value or a /n prefix —
is part of the workload's definition and is drawn from a generator that
does not depend on the seed.  The seed draws the contents: key values,
action data, the preloaded routes.  Two seeds therefore give different
inputs (different input hashes) of the same shape, and their latencies
differ by the engine's sensitivity to entry contents, not by one seed
having drawn more recompiles than the other.

The four workloads are chosen so that each engine layer has one workload
where it carries the latency and one where it idles (see ``README.md``):

* ``route_churn``  — forwarded insert/delete churn on populated routing tables;
* ``policy_flip``  — first/last entry per (table, action): mostly recompiles;
* ``acl_precise``  — wide ternary ACLs held under the overapproximation
  threshold: every update pays for the precise encoding;
* ``burst_batch``  — ``route_churn``'s tables, submitted as heavy-tailed bursts
  through ``apply_batch``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from repro.runtime.entries import ExactMatch, LpmMatch, TableEntry, TernaryMatch
from repro.runtime.fuzzer import ipv4_route_entries
from repro.runtime.semantics import DELETE, INSERT, MODIFY, Update

#: Device target per program, as in ``benchmarks/test_table2_analysis_times.py``.
TARGETS = {
    "scion": "tofino",
    "switch": "tofino",
    "middleblock": "bmv2",
    "dash": "bmv2",
    "beaucoup": "tofino",
    "accturbo": "tofino",
    "dta": "tofino",
}
TABLE2 = ("scion", "switch", "middleblock", "dash")
SKETCHES = ("beaucoup", "accturbo", "dta")
#: Programs whose decisions are pooled before a percentile is taken: each
#: Table-2 program alone, the three sketches together.  A sketch has few
#: tables and repeats its roll-out to fill its share of ``policy_flip``, and
#: each repeat costs more than the one before (beaucoup: 0.3 s for the
#: first, 1.4-2.6 s for the eleventh, by the seed's contents).  Held to 200
#: decisions of its own, beaucoup's median sat on the knee between its fast
#: and slow decisions (1.2-2.7 ms over six seeds) and its wall time was
#: 2.7-5.3 s of the workload's 12.5 s.
PERCENTILE_GROUPS = tuple((program,) for program in TABLE2) + (SKETCHES,)

#: Forwarding tables per Table-2 program.  The first is the *main* route
#: table (a 32-bit LPM), preloaded past the overapproximation threshold; the
#: others stay small and precise, so the churn exercises both encodings.
ROUTE_TABLES = {
    "scion": (
        "ScionIngress.ipv4_forward",
        "ScionIngress.ipv6_forward",
        "ScionIngress.ingress_interface_map",
    ),
    "switch": (
        "SwitchIngress.ipv4_lpm",
        "SwitchIngress.ipv6_lpm",
        "SwitchIngress.ipv4_host",
    ),
    "middleblock": (
        "MiddleblockIngress.ipv4_route",
        "MiddleblockIngress.ipv6_route",
        "MiddleblockIngress.nexthop_table",
    ),
    "dash": (
        "DashIngress.outbound_routing",
        "DashIngress.direction_lookup",
        "DashIngress.inbound_routing",
    ),
}

#: Tables that share no program point with the forwarding tables (each is
#: its own conflict component).  ``burst_batch``'s mixed bursts touch them
#: too, so that those bursts split into several conflict groups.
BURST_SIDE_TABLES = {
    "scion": ("ScionIngress.bfd_sessions", "ScionEgress.mtu_table"),
    "switch": ("SwitchIngress.dmac_table", "SwitchIngress.tunnel_encap_table"),
    "middleblock": ("MiddleblockIngress.ecn_marking", "MiddleblockIngress.dscp_remark"),
    "dash": ("DashIngress.appliance_table", "DashIngress.eni0_policy"),
}

#: Wide ternary ACL tables per Table-2 program (Table 3's regime).
ACL_TABLES = {
    "scion": ("ScionIngress.acl_v4", "ScionIngress.acl_v6"),
    "switch": ("SwitchIngress.ipv4_acl", "SwitchIngress.mac_acl"),
    "middleblock": (
        "MiddleblockIngress.acl_pre_ingress",
        "MiddleblockIngress.acl_ingress",
    ),
    "dash": ("DashIngress.acl_outbound_stage0", "DashIngress.acl_inbound_stage0"),
}

#: Tables ``policy_flip`` leaves alone.  These two are applied inside an
#: ``if (t.apply().miss)`` condition; at the commit that added the benchmark
#: the specializer can drop such a table's declaration while keeping the
#: condition, and the next target compile raises (README "Known defects").
POLICY_FLIP_SKIP = ("SwitchIngress.ipv4_host", "SwitchIngress.ipv6_host")

#: The paper's latency budgets (§4.2): 100 ms per update, 1 s per burst.
UPDATE_BUDGET_MS = 100.0
BURST_BUDGET_MS = 1000.0

#: ``--seconds`` at which the ``decisions`` below apply; other values scale
#: the streams linearly (never under ``floor`` except with ``--smoke``).
NOMINAL_SECONDS = 10
#: Fewest decisions a percentile group gets, so that its p95 is reportable.
GROUP_FLOOR = 200

#: Main-route-table fill: three times the 100-entry overapproximation
#: threshold, so the table stays overapproximated under ±50 of churn.
ROUTE_PRELOAD = 300
#: Tables besides the workload's own that get a representative entry per
#: action in the initial config (a fixed sample; see README "Sizing").
CONFIG_SAMPLE = 16
#: Share of route churn that goes to the main table; the rest is spread
#: over the small precise tables, whose updates re-query more points.  At
#: 0.85 a program's median decision is a main-table update and its p95 a
#: small-table one, both well inside their mode rather than on the knee
#: between the two (at 0.6 the median swung ±20% from run to run).
MAIN_TABLE_SHARE = 0.85
#: Size band of the small precise forwarding tables under churn.
SMALL_TABLE_MAX = 40
#: ACL band (live entries per table): precise encoding throughout.
ACL_LOW, ACL_HIGH = 16, 32
#: Burst sizes: lognormal, median 10, mean ~25, capped at 400.
BURST_MEDIAN, BURST_SIGMA, BURST_MAX = 10, 1.35, 400
BURST_FLAP_P = 0.15
#: Share of bursts that churn the main table only (a route flap); the rest
#: (a roll-out) also touch the small forwarding tables and the side tables,
#: and so split into several conflict groups.
BURST_MAIN_ONLY_P = 0.85


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    programs: tuple
    decisions: int  # at NOMINAL_SECONDS, summed over programs
    floor: int
    budget_ms: float
    burst: bool = False


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="route_churn",
            why=(
                "Fig. 1 routing class: every update forwards, so point verdicts, gate tiers "
                "and substitution carry latency; the solver runs on 1% of decisions, the "
                "specializer never"
            ),
            programs=TABLE2,
            decisions=12000,
            floor=1000,
            budget_ms=UPDATE_BUDGET_MS,
        ),
        WorkloadSpec(
            name="policy_flip",
            why=(
                "Fig. 1 slow policy class from an empty config: most decisions recompile, "
                "so solver, specializer and target compile dominate; setup is cold-only"
            ),
            programs=TABLE2 + SKETCHES,
            decisions=1200,
            floor=1000,
            budget_ms=UPDATE_BUDGET_MS,
        ),
        WorkloadSpec(
            name="acl_precise",
            why=(
                "Table 3 regime: wide ternary ACLs at 16-32 entries stay precise, so each update "
                "re-encodes the table, rebuilds its match diagram and re-queries ~55 points"
            ),
            programs=TABLE2,
            # 500 per program: each program's p95 then has 25 samples beyond
            # it; at 250 (13 beyond) it spread 0.09-0.12 over ten seeds.
            decisions=2000,
            floor=1000,
            budget_ms=UPDATE_BUDGET_MS,
        ),
        WorkloadSpec(
            name="burst_batch",
            why=(
                "route_churn's tables as heavy-tailed apply_batch bursts: coalesce, "
                "partition, worker slices and merge, where per-update wins can cost"
            ),
            programs=TABLE2,
            decisions=800,
            floor=400,
            budget_ms=BURST_BUDGET_MS,
            burst=True,
        ),
    )
}


@dataclass
class ProgramPlan:
    """One program's share of a workload."""

    program: str
    #: Initial config, loaded one ``process_update`` at a time during setup.
    config: list = field(default_factory=list)
    #: Bulk table fill, loaded through one ``process_batch`` during setup.
    preload: list = field(default_factory=list)
    #: The measured stream: an ``Update`` per decision, or a tuple of them
    #: (one burst) in ``burst_batch``.
    stream: list = field(default_factory=list)


def _shortest_prefix(width: int) -> int:
    """Fewest bits a generated prefix keeps: a quarter of the key and at
    least 8 (an IPv4 /8, a /16 on a 64-bit key); narrow keys match whole."""
    return min(width, max(8, width // 4))


def derive_seed(*parts) -> int:
    """A stable 64-bit seed from labels (``hash()`` would vary with
    ``PYTHONHASHSEED``)."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class LiveTables:
    """Live match keys per canonical table — the validity oracle of the
    generator — and the two generators every draw comes from: ``shape``
    (fixed per workload and program) and ``values`` (from the run seed).

    Keys are kept in insertion-ordered lists (swap-remove on delete), so
    picking a live slot is O(1) and independent of hash order.
    """

    def __init__(self, model, workload: str, program: str, seed: int) -> None:
        self.model = model
        self.shape = random.Random(derive_seed("shape", workload, program))
        self.values = random.Random(derive_seed("values", workload, program, seed))
        self._keys: dict[str, list] = {}
        self._entries: dict[str, dict] = {}

    def size(self, table: str) -> int:
        return len(self._keys.get(table, ()))

    def live_keys(self, table: str) -> list:
        return self._keys.get(table, [])

    # -- entries -----------------------------------------------------------------

    def fresh(self, table: str, action=None, args=None) -> TableEntry:
        """A valid entry whose match key is not live in ``table``: a match
        pattern from ``shape``, filled with ``values`` until the key is fresh."""
        info = self.model.tables[table]
        live = self._entries.setdefault(table, {})
        if action is None:
            action = self.shape.choice(info.action_order)
        if args is None:
            args = self._action_data(info, action)
        for _ in range(100):
            pattern, priority = self._match_pattern(info)
            for _ in range(64):
                entry = TableEntry(self._fill(info, pattern), action, args, priority)
                if entry.match_key() not in live:
                    return entry
        raise RuntimeError(f"key space of {table} exhausted")

    def _action_data(self, info, action: str) -> tuple:
        return tuple(
            self.values.randrange(1 << p.width) for p in info.action_params.get(action, [])
        )

    def _match_pattern(self, info) -> tuple:
        """Per key, the mask to match under (None for an exact key), and the
        entry's priority.  A ternary key is a wildcard, an exact value or a
        prefix, as in real ACLs, and an entry cares about at least two of
        its ternary keys where it has two.  ``EntryFuzzer`` also draws a
        fifth of its masks uniformly, which on the zoo's 3-7 key ACLs makes
        the gate's match diagram explode — one rebuild took 6 s at 30
        entries — and no real ACL does that.

        A prefix keeps at least ``_shortest_prefix`` bits.  With /1-/7
        prefixes allowed, deleting one from scion's ``ipv6_forward`` cost
        2 ms or 600 ms depending on one bit of the seed's contents, and
        three such deletes were a fifth of ``route_churn``'s wall time on
        some seeds and absent on others.
        """
        shape = self.shape
        ternary_keys = sum(1 for key in info.keys if key.match_kind == "ternary")
        while True:
            pattern = []
            for key in info.keys:
                if key.match_kind == "exact":
                    pattern.append(None)
                    continue
                length = shape.randint(_shortest_prefix(key.width), key.width)
                if key.match_kind == "ternary":
                    kind = shape.random()
                    length = 0 if kind < 0.3 else key.width if kind < 0.65 else length
                pattern.append(length)
            cared = sum(
                1
                for key, length in zip(info.keys, pattern)
                if key.match_kind == "ternary" and length
            )
            if cared >= min(2, ternary_keys):
                break
        return pattern, shape.randrange(1, 1 << 16) if ternary_keys else 0

    def _fill(self, info, pattern: list) -> tuple:
        matches = []
        for key, length in zip(info.keys, pattern):
            value = self.values.randrange(1 << key.width)
            if length is None:
                matches.append(ExactMatch(value))
                continue
            mask = ((1 << length) - 1) << (key.width - length)
            if key.match_kind == "lpm":
                matches.append(LpmMatch(value & mask, length))
            else:
                matches.append(TernaryMatch(value & mask, mask))
        return tuple(matches)

    def like_installed(self, table: str) -> TableEntry:
        """A fresh key that reuses a live entry's action *and* action data,
        so that inserting it changes no verdict of a populated table."""
        donor = self._entries[table][self._pick(table)]
        return self.fresh(table, donor.action, donor.args)

    # -- operations --------------------------------------------------------------

    def insert(self, table: str, entry: TableEntry) -> Update:
        live = self._entries.setdefault(table, {})
        key = entry.match_key()
        if key in live:
            raise ValueError(f"generator bug: {table} key {key} is already live")
        live[key] = entry
        self._keys.setdefault(table, []).append(key)
        return Update(table, INSERT, entry)

    def _pick(self, table: str):
        keys = self._keys[table]
        return keys[self.shape.randrange(len(keys))]

    def delete(self, table: str, key=None) -> Update:
        keys = self._keys[table]
        index = self.shape.randrange(len(keys)) if key is None else keys.index(key)
        key = keys[index]
        keys[index] = keys[-1]
        keys.pop()
        return Update(table, DELETE, self._entries[table].pop(key))

    def modify(self, table: str, key=None) -> Update:
        """Rewrite a live entry's action and action data in place."""
        if key is None:
            key = self._pick(table)
        old = self._entries[table][key]
        info = self.model.tables[table]
        action = self.shape.choice(info.action_order)
        entry = TableEntry(old.matches, action, self._action_data(info, action), old.priority)
        self._entries[table][key] = entry
        return Update(table, MODIFY, entry)


# ---------------------------------------------------------------------------
# Initial config and preload
# ---------------------------------------------------------------------------


def _initial_config(live: LiveTables, own_tables: list) -> list:
    """One entry per action (``representative_updates(per_action=1)``'s
    shape) for the workload's own tables plus a fixed sample of
    ``CONFIG_SAMPLE`` others, so every seed specializes the same program."""
    model = live.model
    others = sorted(set(model.tables) - set(own_tables))
    live.shape.shuffle(others)
    updates = []
    for table in own_tables + sorted(others[:CONFIG_SAMPLE]):
        info = model.tables[table]
        for action in info.action_order or [info.default_action]:
            updates.append(live.insert(table, live.fresh(table, action)))
    return updates


def _route_preload(live: LiveTables, table: str, seed: int) -> list:
    """``ROUTE_PRELOAD`` unique ``ipv4_route_entries`` for the main table,
    all running the table's first action that carries action data."""
    info = live.model.tables[table]
    action = next(a for a in info.action_order if info.action_params.get(a))
    taken = set(live.live_keys(table))
    updates = []
    for entry in ipv4_route_entries(
        live.model, table, ROUTE_PRELOAD + len(taken), action, seed=seed
    ):
        if entry.match_key() not in taken and len(updates) < ROUTE_PRELOAD:
            updates.append(live.insert(table, entry))
    return updates


# ---------------------------------------------------------------------------
# Stream shapes
# ---------------------------------------------------------------------------


class _RouteChurn:
    """Insert/delete churn on one program's forwarding tables.

    The main table random-walks around its preloaded size (any live key
    may be deleted); the small tables grow and shrink between their
    config size and ``SMALL_TABLE_MAX``, deleting only churned-in keys so
    the installed actions stay installed.
    """

    def __init__(self, live: LiveTables, tables: list) -> None:
        self.live = live
        self.main, self.small = tables[0], tables[1:]
        self.churned: dict[str, list] = {t: [] for t in self.small}
        self.main_base = live.size(self.main)

    def step(self, main_only: bool = False) -> Update:
        live, shape = self.live, self.live.shape
        if main_only or shape.random() < MAIN_TABLE_SHARE:
            drift = live.size(self.main) - self.main_base
            if drift <= -50 or (drift < 50 and shape.random() < 0.5):
                return live.insert(self.main, live.like_installed(self.main))
            return live.delete(self.main)
        table = shape.choice(self.small)
        churned = self.churned[table]
        grow = not churned or (
            live.size(table) < SMALL_TABLE_MAX and shape.random() < 0.5
        )
        if grow:
            update = live.insert(table, live.like_installed(table))
            churned.append(update.entry.match_key())
            return update
        index = shape.randrange(len(churned))
        churned[index], churned[-1] = churned[-1], churned[index]
        return live.delete(table, churned.pop())


def _route_stream(live: LiveTables, tables: list, count: int) -> list:
    churn = _RouteChurn(live, tables)
    return [churn.step() for _ in range(count)]


def _burst_stream(live: LiveTables, tables: list, count: int) -> list:
    """``count`` bursts of route churn with heavy-tailed sizes and in-burst
    flaps (an insert undone, a delete re-inserted, an insert then modified
    within the same burst) for the coalescer to fold."""
    churn = _RouteChurn(live, tables)
    shape = live.shape
    bursts = []
    for _ in range(count):
        drawn = shape.lognormvariate(math.log(BURST_MEDIAN), BURST_SIGMA)
        size = min(BURST_MAX, max(1, round(drawn)))
        main_only = shape.random() < BURST_MAIN_ONLY_P
        burst: list = []
        while len(burst) < size:
            update = churn.step(main_only)
            burst.append(update)
            if len(burst) < size and shape.random() < BURST_FLAP_P:
                burst.append(_flap(live, churn, update))
        bursts.append(tuple(burst))
    return bursts


def _flap(live: LiveTables, churn: _RouteChurn, update: Update) -> Update:
    """The follow-up operation that undoes or rewrites ``update``."""
    key = update.entry.match_key()
    if update.op == DELETE:
        # A small table's deleted key was churned-in; re-inserting it keeps
        # the bookkeeping as it was before the delete.
        if update.table in churn.churned:
            churn.churned[update.table].append(key)
        return live.insert(update.table, update.entry)
    if live.shape.random() < 0.5:
        return live.modify(update.table, key)
    if update.table in churn.churned:
        churn.churned[update.table].remove(key)
    return live.delete(update.table, key)


def _policy_stream(live: LiveTables, count: int) -> list:
    """Policy roll-outs from the empty config: the first entry per
    (table, action) in shuffled order, then shuffled deletes back down to
    empty.  A big program's ``count`` covers part of one roll-out (a sample
    of whole tables); a small program repeats roll-outs with fresh entries
    until ``count`` decisions are generated."""
    model, shape = live.model, live.shape
    stream: list = []
    while len(stream) < count:
        tables = sorted(set(model.tables) - set(POLICY_FLIP_SKIP))
        shape.shuffle(tables)
        pairs: list = []
        for table in tables:
            info = model.tables[table]
            actions = info.action_order or [info.default_action]
            if 2 * (len(pairs) + len(actions)) <= count - len(stream) or not pairs:
                pairs.extend((table, action) for action in actions)
        shape.shuffle(pairs)
        inserts = [live.insert(table, live.fresh(table, action)) for table, action in pairs]
        deletes = [(u.table, u.entry.match_key()) for u in inserts]
        shape.shuffle(deletes)
        stream.extend(inserts)
        stream.extend(live.delete(table, key) for table, key in deletes)
    return stream


def _acl_stream(live: LiveTables, tables: list, count: int) -> list:
    """Insert/modify/delete on ACLs held at ``ACL_LOW``-``ACL_HIGH`` live
    entries: 40% delete, 40% insert, 20% modify, reflected at the band edges."""
    shape = live.shape
    stream = []
    while len(stream) < count:
        table = shape.choice(tables)
        size = live.size(table)
        roll = shape.random()
        if size >= ACL_HIGH or (size > ACL_LOW and roll < 0.4):
            stream.append(live.delete(table))
        elif size <= ACL_LOW or roll < 0.8:
            stream.append(live.insert(table, live.fresh(table)))
        else:
            stream.append(live.modify(table))
    return stream


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


def decisions_per_program(spec: WorkloadSpec, seconds: float, smoke: bool) -> dict:
    """Split the workload's decision count over its programs: a Table-2
    program gets three shares for every share of a sketch program, so the
    three sketches together weigh as one Table-2 program.  ``smoke`` lifts
    the floors (a quick self-check, not a measurement)."""
    total = spec.decisions * seconds / NOMINAL_SECONDS
    if not smoke:
        total = max(total, spec.floor)
    weights = {p: len(SKETCHES) if p in TABLE2 else 1 for p in spec.programs}
    share = total / sum(weights.values())
    if not smoke:
        share = max(share, GROUP_FLOOR / len(SKETCHES))
    return {p: max(4, math.ceil(share * w)) for p, w in weights.items()}


def build_plan(workload: str, program: str, model, seed: int, count: int) -> ProgramPlan:
    """Generate ``program``'s config, preload and measured stream."""
    live = LiveTables(model, workload, program, seed)
    plan = ProgramPlan(program)
    if workload == "policy_flip":
        plan.stream = _policy_stream(live, count)
        return plan
    if workload == "acl_precise":
        tables = [model.table(t).name for t in ACL_TABLES[program]]
        plan.config = _initial_config(live, tables)
        for table in tables:
            while live.size(table) < (ACL_LOW + ACL_HIGH) // 2:
                plan.preload.append(live.insert(table, live.fresh(table)))
        plan.stream = _acl_stream(live, tables, count)
        return plan
    burst = WORKLOADS[workload].burst
    names = ROUTE_TABLES[program] + (BURST_SIDE_TABLES[program] if burst else ())
    tables = [model.table(t).name for t in names]
    plan.config = _initial_config(live, tables)
    plan.preload = _route_preload(
        live, tables[0], derive_seed("routes", workload, program, seed)
    )
    if burst:
        plan.stream = _burst_stream(live, tables, count)
    else:
        plan.stream = _route_stream(live, tables, count)
    return plan


# ---------------------------------------------------------------------------
# Input hashing
# ---------------------------------------------------------------------------


def _update_text(update: Update) -> str:
    entry = update.entry
    return f"{update.op}|{update.table}|{entry.match_key()}|{entry.action}|{entry.args}"


def plan_digest(plan: ProgramPlan) -> str:
    """SHA-256 over every update the engine will receive for this plan, in
    order — two commits with equal digests received identical inputs."""
    digest = hashlib.sha256()
    for section, updates in (("config", plan.config), ("preload", plan.preload)):
        digest.update(f"#{section}\n".encode())
        for update in updates:
            digest.update(_update_text(update).encode() + b"\n")
    digest.update(b"#stream\n")
    for item in plan.stream:
        if isinstance(item, tuple):
            digest.update(f"burst {len(item)}\n".encode())
            for update in item:
                digest.update(_update_text(update).encode() + b"\n")
        else:
            digest.update(_update_text(item).encode() + b"\n")
    return digest.hexdigest()
