(** Seeded, deterministic fault injection for {!Network.run}.

    The fault model covers the failure classes the expander-routing
    literature cares about (Chang–Saranurak deterministic expander routing
    is exactly a robustness statement about communication schedules):

    - {b message drops}: each sent message is lost independently with
      probability [drop_rate] (Bernoulli per message);
    - {b message duplication}: each delivered message is delivered a second
      time in the same round with probability [duplicate_rate] (a flaky
      link re-transmitting);
    - {b vertex crashes}: a schedule of [crash] events removes vertices at
      the start of a round — a crashed vertex executes no round function,
      sends nothing, and every message addressed to it is dropped; a
      crash-recover entry brings it back with its pre-crash state (its
      inbox is lost);
    - {b link outages}: an undirected link is down for a closed round
      interval; messages crossing it in either direction are dropped.

    All randomness is drawn from a [Random.State] derived from the
    explicit [seed] (never the global PRNG, D001), and fault decisions are
    consumed in the simulator's deterministic traversal order — so a run
    with the same graph, algorithm and fault spec is byte-identical across
    reruns and worker-pool sizes. *)

type crash = {
  vertex : int;
  at_round : int;  (** crashes at the start of this round (1-based) *)
  recover_round : int option;
      (** rejoins at the start of this round with its pre-crash state;
          [None] = crashed forever *)
}

type outage = {
  u : int;
  v : int;  (** undirected link; both directions are affected *)
  from_round : int;
  until_round : int;  (** inclusive *)
}

type t = private {
  seed : int;
  drop_rate : float;
  duplicate_rate : float;
  crashes : crash list;
  outages : outage list;
}

(** The no-fault spec: {!Network.run} with [none] behaves exactly like a
    run without the [?faults] argument. *)
val none : t

(** [make ~seed ()] builds a validated spec. Rates must lie in [[0, 1]];
    crash/outage rounds must be >= 1 with [recover_round > at_round] and
    [from_round <= until_round]; outage endpoints must differ.
    @raise Invalid_argument on a malformed spec. *)
val make :
  ?drop_rate:float ->
  ?duplicate_rate:float ->
  ?crashes:crash list ->
  ?outages:outage list ->
  seed:int ->
  unit ->
  t

(** Whether any fault dimension is switched on. [is_active none = false];
    the simulator skips all fault bookkeeping (and the meter stays silent)
    when inactive. *)
val is_active : t -> bool

(** The spec's PRNG: a fresh [Random.State] deterministically derived from
    [seed]. Two calls return independent states with identical streams. *)
val rng : t -> Random.State.t

(** Round-indexed fault bookkeeping shared by the simulator loops.
    [crash_at] / [recover_at] list the vertices crashing / recovering at
    the start of a given round; [link_down r u v] tells whether the
    {e undirected} link [u -- v] is out in round [r]; [event_rounds] is
    the sorted distinct rounds at which a crash or recovery fires — the
    events an event-driven fast-forward must not jump over. *)
type tables = {
  crash_at : (int, int) Hashtbl.t;
  recover_at : (int, int) Hashtbl.t;
  link_down : int -> int -> int -> bool;
  event_rounds : int array;
}

(** [tables t ~n] builds the bookkeeping for an [n]-vertex network.
    Crash entries for vertices [>= n] are ignored; with [is_active t =
    false] every table is empty. *)
val tables : t -> n:int -> tables

val pp : Format.formatter -> t -> unit
