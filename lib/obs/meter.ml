(* CONGEST cost meter. Congest.Network.run reports every simulation's
   final accounting here, which attributes rounds / messages / bits to
   the enclosing span — so a leader election inside a pipeline inside a
   bench experiment shows up as congest.* counters on exactly that path,
   and E1-E12 get measured round/message tables instead of bare
   outcomes. The names below are the meter's stable vocabulary; the
   schema checker and the tests both pin them. *)

let k_runs = "congest.runs"
let k_rounds = "congest.rounds"
let k_messages = "congest.messages"
let k_bits = "congest.bits"
let k_max_edge_bits = "congest.max_edge_bits"

(* fault counters, reported by Congest.Network.run only for runs with an
   active fault spec — a fault-free run records nothing here, keeping
   fault-free profiles byte-identical to builds without the fault layer *)
let k_dropped = "net.dropped"
let k_duplicated = "net.duplicated"
let k_crashed_rounds = "net.crashed_rounds"

(* schedule sparsity, reported by Congest.Network.run (the reference loop
   steps everyone and records nothing here) *)
let k_active_vertices = "net.active_vertices"

(* flat-inbox footprint, reported by Congest.Network.run (the reference
   loop keeps list inboxes and records nothing here): the high-watermark
   of machine words retained by the per-vertex / per-shard flat inbox
   buffers, and the residual footprint once the run ends — the pair the
   burst-then-quiescent shrink test pins *)
let k_inbox_peak_words = "net.inbox_peak_words"
let k_inbox_final_words = "net.inbox_final_words"

let net ~rounds ~messages ~total_bits ~max_edge_bits =
  if Rt.is_enabled () then begin
    Metric.incr k_runs;
    Metric.count k_rounds rounds;
    Metric.count k_messages messages;
    Metric.count k_bits total_bits;
    Metric.set_max k_max_edge_bits max_edge_bits
  end

let active ~vertices =
  if Rt.is_enabled () then Metric.count k_active_vertices vertices

let inbox ~peak_words ~final_words =
  if Rt.is_enabled () then begin
    Metric.set_max k_inbox_peak_words peak_words;
    Metric.set_max k_inbox_final_words final_words
  end

let faults ~dropped ~duplicated ~crashed_rounds =
  if Rt.is_enabled () then begin
    Metric.count k_dropped dropped;
    Metric.count k_duplicated duplicated;
    Metric.count k_crashed_rounds crashed_rounds
  end
