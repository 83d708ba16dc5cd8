type 'msg packet =
  | Payload of { seq : int; body : 'msg }
  | Ack of { seq : int }

type 'msg entry = {
  dst : int;
  seq : int;
  body : 'msg;
  next_retry : int;  (* round at which the next transmission is due;
                        0 = never transmitted, due at the next flush *)
  backoff : int;
}

type 'msg t = {
  next_seq : int;
  queue : 'msg entry list;  (* send order, oldest first *)
  seen : (int * int, unit) Hashtbl.t;  (* (sender, seq) already delivered *)
}

let create () = { next_seq = 0; queue = []; seen = Hashtbl.create 16 }

let packet_bits ~word ~body = function
  | Payload p -> 1 + word + body p.body
  | Ack _ -> 1 + word

let send st ~dst body =
  {
    st with
    next_seq = st.next_seq + 1;
    queue =
      st.queue
      @ [ { dst; seq = st.next_seq; body; next_retry = 0; backoff = 2 } ];
  }

let cancel st ~dst = { st with queue = List.filter (fun e -> e.dst <> dst) st.queue }

let deliver st inbox =
  let fresh = ref [] in
  let acks = ref [] in
  let queue = ref st.queue in
  List.iter
    (fun (src, packet) ->
      match packet with
      | Payload { seq; body } ->
          (* ack every receipt: the previous ack may have been dropped *)
          acks := (src, Ack { seq }) :: !acks;
          if not (Hashtbl.mem st.seen (src, seq)) then begin
            Hashtbl.add st.seen (src, seq) ();
            fresh := (src, body) :: !fresh
          end
      | Ack { seq } ->
          queue := List.filter (fun e -> not (e.dst = src && e.seq = seq)) !queue)
    inbox;
  ({ st with queue = !queue }, List.rev !fresh, List.rev !acks)

let backoff_cap = 8

let flush ?max_per_dst st ~now =
  let sent_to : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let under_cap dst =
    match max_per_dst with
    | None -> true
    | Some cap ->
        (match Hashtbl.find_opt sent_to dst with
        | Some k -> k < cap
        | None -> true)
  in
  let out = ref [] in
  let queue =
    List.map
      (fun e ->
        if e.next_retry <= now && under_cap e.dst then begin
          Hashtbl.replace sent_to e.dst
            (1 + Option.value ~default:0 (Hashtbl.find_opt sent_to e.dst));
          out := (e.dst, Payload { seq = e.seq; body = e.body }) :: !out;
          {
            e with
            next_retry = now + e.backoff;
            backoff = min (2 * e.backoff) backoff_cap;
          }
        end
        else e)
      st.queue
  in
  ({ st with queue }, List.rev !out)
