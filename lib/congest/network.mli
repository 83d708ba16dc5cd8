(** Synchronous message-passing simulator for the LOCAL and CONGEST models.

    Vertices host processors and operate in synchronized rounds (Section 1
    of the paper). Each round, every non-halted vertex receives the messages
    sent to it in the previous round, updates its state, and sends messages
    to neighbors. In CONGEST mode the simulator {e enforces} the bandwidth
    restriction: the total declared bit-size of the messages crossing a
    directed edge in one round must not exceed the per-edge budget, or the
    run aborts with {!Congestion_violation}.

    The simulator uses the KT1 variant: a vertex knows its own id and the
    ids of its neighbors (the paper's algorithms, e.g. leader election in
    Theorem 2.6, exchange ids freely). *)

(** Per-edge per-round bandwidth. [Congest bits] enforces the budget;
    [Local] is the LOCAL model (unlimited). The paper's CONGEST budget is
    [O(log n)]: use {!congest_bandwidth}. *)
type bandwidth = Congest of int | Local

(** [congest_bandwidth ?c n] is [c * ceil(log2 (max n 2))] bits (default
    [c = 8], a conventional constant), computed with integer bit counting
    ({!Bits.ceil_log2}) so the budget is exact at powers of two. *)
val congest_bandwidth : ?c:int -> int -> bandwidth

exception Congestion_violation of {
  round : int;
  src : int;
  dst : int;
  bits : int;
  budget : int;
}

(** What the processor at a vertex can see locally. *)
type ctx = {
  id : int;               (** this vertex's id *)
  n_hint : int;           (** number of network nodes (standard assumption) *)
  neighbors : int array;  (** ids of adjacent vertices, sorted *)
}

(** One vertex's round outcome: new state, outgoing messages as
    [(neighbor, message)] pairs, whether the vertex halts, and an optional
    wake-up request. The messages a vertex sends in its halting round are
    still delivered (they were sent before it stopped); from the next round
    on it sends nothing and its state no longer changes. Messages arriving
    at an already-halted vertex are dropped.

    [wake_after] drives {!run}'s scheduling: [Some d] (with [d >= 1]) asks
    to be stepped again in round [r + d] even if no message arrives;
    [None] sleeps until the next incoming message. Each step replaces the
    previous request, and halting cancels it. An algorithm whose vertices
    act on the round clock returns [~wake_after:1] from every non-halting
    step. {!run_reference} ignores it. *)
type ('state, 'msg) step = {
  state : 'state;
  send : (int * 'msg) list;
  halt : bool;
  wake_after : int option;
}

(** [step ?wake_after ?send ?halt state] builds a {!step}; [send] defaults
    to no messages, [halt] to [false] and [wake_after] to [None]. *)
val step :
  ?wake_after:int ->
  ?send:(int * 'msg) list ->
  ?halt:bool ->
  'state ->
  ('state, 'msg) step

(** How {!run} spreads the simulation over domains.

    [Sharded { shards; pool }] partitions the vertices into [shards]
    contiguous CSR-aligned ranges (vertex [v] lives in shard [v / chunk]
    with [chunk = ceil (n / shards)]) and steps the shards in parallel on
    [pool]'s domains, one barrier per round, while all cross-shard
    delivery — bandwidth accounting, congestion checks, fault draws —
    happens sequentially on the calling domain between barriers, in the
    exact sender-ascending order of {!run_reference}. Results (final
    states and {!stats}) are identical at every shard and jobs count,
    including fixed-seed fault outcomes. [shards] is clamped to at
    least 1. The default is one shard on [Parallel.Pool.sequential],
    which runs the whole loop on the calling domain.

    Each shard keeps its traffic in flat arenas, one column each for
    sender, receiver and the ['msg] value itself, so a message is stored
    once as a value whatever its type.

    The user's [init], [round] and [msg_bits] functions may execute
    on worker domains: they must be domain-safe pure functions of their
    arguments (the wake-up contract already demands this of [round]). *)
type exec = Sharded of { shards : int; pool : Parallel.Pool.t }

(** Cumulative execution statistics. Every sent message is either
    delivered into an inbox or counted in [dropped] (injected fault,
    destination crashed, or destination already halted), so
    [messages - dropped] messages reach an inbox, and the fault layer's
    [duplicated] copies arrive on top of them. A crash that wipes an
    inbox loses its messages without counting them as dropped. *)
type stats = {
  rounds : int;                (** rounds executed *)
  messages : int;              (** total messages sent (bandwidth spent) *)
  dropped : int;               (** sent but never delivered: faults plus
                                   messages to crashed/halted vertices *)
  duplicated : int;            (** extra deliveries injected by the fault
                                   layer (not counted in [messages]) *)
  crashed_rounds : int;        (** vertex-rounds spent crashed *)
  total_bits : int;            (** total declared bits sent *)
  max_edge_bits : int;         (** max bits on one directed edge in one round *)
  completed : bool;            (** every vertex halted (or crashed) before
                                   the round cap *)
  last_traffic_round : int;    (** last round in which any message was sent;
                                   0 if the run was silent *)
}

(** [run g ~bandwidth ~msg_bits ~init ~round ~max_rounds] executes the
    algorithm synchronously on the topology [g] and returns the final
    states with statistics. [init ctx] builds the starting state; [round r
    ctx state inbox] computes round [r >= 1] ([inbox] lists [(sender,
    message)] pairs received this round, sorted by sender). Execution stops
    when every vertex has halted, or after [max_rounds] rounds.

    [?faults] injects deterministic faults (see {!Faults}): dropped and
    duplicated messages, vertex crash / crash-recover schedules, and link
    outages. Crashed vertices execute no round function and send nothing;
    a permanently crashed vertex counts toward completion (the network
    cannot wait for it). Senders are charged bandwidth for dropped
    messages — the loss happens on the wire, after the send. With
    [Faults.none] (the default) the run is byte-identical to one without
    the argument, and no fault counters reach the cost meter.

    Scheduling is event-driven: a vertex is stepped in round [r] only if
    it received a message in round [r - 1], just recovered from a crash,
    or requested a wake-up via [wake_after] (round 1 steps everyone). An
    algorithm must honor the {e wake-up contract}: a round call with an
    empty inbox outside the vertex's own wake-up requests must be a no-op
    — it sends nothing, does not halt, and any state change is
    observationally irrelevant. Under that contract the skipped calls are
    exactly no-ops, so stats and final outputs are identical to
    {!run_reference}; rounds in which no vertex is scheduled are
    fast-forwarded without iterating anything. Fault injection composes
    with it: the fault RNG's draw order (vertices ascending, each
    vertex's sends in list order, one optional draw per sent then per
    delivered message) is a property of the delivery sweep and does not
    depend on which sleeping vertices were skipped.

    [?exec] selects the shard count and worker pool (default one shard on
    [Parallel.Pool.sequential]); see {!exec}. It changes only where the
    work runs, never a result.

    @raise Congestion_violation when a CONGEST budget is exceeded.
    @raise Invalid_argument if a vertex sends to a non-neighbor, or
    requests [wake_after] < 1. *)
val run :
  ?faults:Faults.t ->
  ?exec:exec ->
  Sparse_graph.Graph.t ->
  bandwidth:bandwidth ->
  msg_bits:('msg -> int) ->
  init:(ctx -> 'state) ->
  round:(int -> ctx -> 'state -> (int * 'msg) list -> ('state, 'msg) step) ->
  max_rounds:int ->
  'state array * stats

(** The pre-scheduler simulator loop, kept verbatim as the behavioral
    oracle: it steps every non-halted, non-crashed vertex every round,
    re-sorts each inbox, and ignores [wake_after]. It shares no delivery
    code with {!run}, which must be stats- and state-identical to it at
    every shard count and pool size (the equivalence
    suite in [test/] pins this); it is also the slow side of the
    [congest-bench] comparison. Not for production use. *)
val run_reference :
  ?faults:Faults.t ->
  Sparse_graph.Graph.t ->
  bandwidth:bandwidth ->
  msg_bits:('msg -> int) ->
  init:(ctx -> 'state) ->
  round:(int -> ctx -> 'state -> (int * 'msg) list -> ('state, 'msg) step) ->
  max_rounds:int ->
  'state array * stats
