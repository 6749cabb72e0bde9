(* The serve-mixed workload: one closed-loop client connection over
   [Transport.Unix_socket] to a [Server] with its default worker count.

   The client opens with one [Hello] as [user], opens capability
   handles on the procedures it may execute, then sends a seeded mix:
   60% [Read] of small files, 5% [Read] of the 64 KiB file, 10%
   [Resolve], 10% [Call], 10% [Call_handle] and 5% [Write] with
   [append = false] and a payload as long as the file, so file sizes
   never change and reads never touch the written files.

   Oracle: every request's expected response body is computed before
   the run, in process, on the reference world of [World]; each
   response must echo its request's seq in order (the load generator's
   conservation check) and carry exactly the expected body.

   The traced run wraps the [Transport.t] handed to [Server.create]:
   the server's recv wait, busy time (recv return to send call) and
   send are recorded as spans keyed by the request seq, which joins
   them to the client's spans. *)

open Exsec_core
open Exsec_extsys
open Exsec_services
module Wire = Exsec_serve.Wire
module Transport = Exsec_serve.Transport
module Server = Exsec_serve.Server
module Metrics = Exsec_obs.Metrics

let mix = [| 60; 5; 10; 10; 10; 5 |]
let n_open_handles = 16
let setup_rounds = 7

(* {1 The server-side transport wrapper} *)

type tap = {
  active : bool Atomic.t;
  recv_entries : int Atomic.t;  (** recv calls the server has entered *)
  sp : Spans.t;  (** written by the one worker serving the connection *)
  mutable seq : int;
  mutable recv_start : int;
  mutable recv_return : int;
}

let new_tap () =
  {
    active = Atomic.make false;
    recv_entries = Atomic.make 0;
    sp = Spans.create 1;
    seq = -1;
    recv_start = 0;
    recv_return = 0;
  }

let op_tag = '\001'

let tap_conn tap (conn : Transport.conn) =
  let recv () =
    Atomic.incr tap.recv_entries;
    let a = Clock.now () in
    let frame = conn.Transport.recv () in
    let b = Clock.now () in
    (match frame with
    | Some f when Atomic.get tap.active && String.length f >= 9 && f.[0] = op_tag ->
      tap.seq <- Int64.to_int (String.get_int64_be f 1);
      tap.recv_start <- a;
      tap.recv_return <- b
    | Some _ | None -> tap.seq <- -1);
    frame
  in
  let send payload =
    if tap.seq < 0 then conn.Transport.send payload
    else begin
      let a = Clock.now () in
      conn.Transport.send payload;
      let b = Clock.now () in
      let seq = tap.seq in
      tap.seq <- -1;
      Spans.span tap.sp ~op:seq Spans.server_recv_wait tap.recv_start tap.recv_return;
      Spans.span tap.sp ~op:seq Spans.server_busy tap.recv_return a;
      Spans.span tap.sp ~op:seq Spans.server_send a b
    end
  in
  { conn with Transport.recv; send }

let tap_transport tap (t : Transport.t) =
  { t with Transport.accept = (fun () -> Option.map (tap_conn tap) (t.Transport.accept ())) }

(* {1 Requests and their expected bodies} *)

let body_of_result = function
  | Ok v -> Wire.Value v
  | Error (Service.Quota_exceeded why) -> Wire.Busy why
  | Error e -> Wire.Error (Wire.error_of_service e)

let denied d = Wire.Error (Wire.error_of_service (Service.error_of_denial d))

let expect_read (rw : World.t) path =
  match Resolver.resolve (World.resolver rw) ~subject:rw.World.user_subject ~mode:Access_mode.Read path with
  | Error d -> denied d
  | Ok node -> (
    match Namespace.payload node with
    | Some (Memfs.File f) -> Wire.Value (Value.str (Memfs.file_contents f))
    | Some _ | None ->
      body_of_result (Error (Service.Unresolved (Path.to_string path ^ ": not a readable object"))))

let expect_resolve (rw : World.t) path mode =
  match Resolver.resolve (World.resolver rw) ~subject:rw.World.user_subject ~mode path with
  | Error d -> denied d
  | Ok node -> Wire.Value (Value.str (Inproc.kind_string node))

let expect_call (rw : World.t) path =
  body_of_result (Kernel.call rw.World.kernel ~subject:rw.World.user_subject ~caller:"oracle" path [])

let expect_write (rw : World.t) path =
  match Resolver.resolve (World.resolver rw) ~subject:rw.World.user_subject ~mode:Access_mode.Write path with
  | Error d -> denied d
  | Ok _ -> Wire.Value Value.unit

(* Per kind: the request and the body the reference world answers. *)
let templates (w : World.t) (rw : World.t) ~handles =
  let s = Path.to_string in
  let payload = String.make World.file_bytes 'w' in
  [|
    Array.map (fun p -> Wire.Read { path = s p }, expect_read rw p) w.World.files;
    [| Wire.Read { path = s w.World.big }, expect_read rw w.World.big |];
    Array.map
      (fun (p, mode) ->
        Wire.Resolve { path = s p; mode = Access_mode.to_string mode }, expect_resolve rw p mode)
      (Inproc.resolve_table w);
    Array.map (fun p -> Wire.Call { path = s p; args = [] }, expect_call rw p) w.World.procs;
    Array.map
      (fun (id, p) -> Wire.Call_handle { handle = id; args = [] }, expect_call rw w.World.procs.(p))
      handles;
    Array.map
      (fun p -> Wire.Write { path = s p; data = payload; append = false }, expect_write rw p)
      w.World.writes;
  |]

type stream = { rng : Random.State.t }

let stream ~seed = { rng = Random.State.make [| seed; 0x5e7e |] }

let next (tpl : (Wire.op * Wire.body) array array) s =
  let kind = Inproc.pick_weighted mix (Random.State.int s.rng 100) in
  (kind, Random.State.int s.rng (Array.length tpl.(kind)))

(* {1 The client} *)

type client = {
  conn : Transport.conn;
  mutable seq : int;  (** ops sent so far; the hello is seq 0 *)
}

let rpc cl op =
  cl.seq <- cl.seq + 1;
  cl.conn.Transport.send (Wire.encode_request (Wire.Op { seq = cl.seq; op }));
  match cl.conn.Transport.recv () with
  | None -> Error "connection closed"
  | Some frame -> Wire.decode_response frame

let user_creds = { Wire.principal = "user"; secret = None; level = None; categories = [] }

type session = {
  w : World.t;
  server : Server.t;
  cl : client;
  tap : tap;
  handles : (int * int) array;  (** (wire handle id, proc index) *)
}

let socket_path () = Printf.sprintf ".bench_out/serve-%d.sock" (Unix.getpid ())

(* World, server, connection, hello and handle opens: what [setup_s]
   measures. *)
let open_session ~seed ~tap =
  let w = World.build ~reference:false ~seed World.dense in
  let path = socket_path () in
  let transport = Transport.Unix_socket.listen path in
  let transport = match tap with Some tap -> tap_transport tap transport | None -> transport in
  let server = Server.create w.World.kernel transport in
  Server.start server;
  let cl = { conn = Transport.Unix_socket.connect path; seq = 0 } in
  cl.conn.Transport.send (Wire.encode_request (Wire.Hello { seq = 0; creds = user_creds }));
  (match Option.map Wire.decode_response (cl.conn.Transport.recv ()) with
  | Some (Ok { Wire.body = Wire.Hello_ok _; _ }) -> ()
  | _ -> failwith "hello refused");
  let handles = ref [] in
  Array.iteri
    (fun p path ->
      if List.length !handles < n_open_handles then
        match rpc cl (Wire.Open_handle { path = Path.to_string path }) with
        | Ok { Wire.body = Wire.Value (Value.Int id); _ } -> handles := (id, p) :: !handles
        | Ok _ -> ()
        | Error why -> failwith ("open_handle: " ^ why))
    w.World.procs;
  {
    w;
    server;
    cl;
    tap = Option.value tap ~default:(new_tap ());
    handles = Array.of_list (List.rev !handles);
  }

let close_session s =
  s.cl.conn.Transport.close ();
  Server.stop s.server

type phase = {
  iv : Interval.t;
  sp : Spans.t;  (** client side *)
  mutable ops : int;
  mutable failed : int;
  mutable bytes : int;
  mutable heap_top : int;  (** major heap words, sampled every 1024 ops *)
}

let new_phase ~ns =
  {
    iv = Interval.create ~start:(Clock.now ()) ~ns;
    sp = Spans.create 0;
    ops = 0;
    failed = 0;
    bytes = 0;
    heap_top = (Gc.quick_stat ()).Gc.heap_words;
  }

let send conn frame =
  match conn.Transport.send frame with () -> true | exception Transport.Closed -> false

let timed_loop s tpl st ~traced ~ns ~corrupt phase =
  let conn = s.cl.conn in
  let deadline = phase.iv.Interval.start + ns in
  let lost = ref false in
  while (not !lost) && Clock.now () < deadline do
    if phase.ops land 1023 = 1023 then
      phase.heap_top <- max phase.heap_top (Gc.quick_stat ()).Gc.heap_words;
    (* the root span runs from drawing the request to checking the
       reply; what no child span covers is the client's own work *)
    let r0 = if traced then Clock.now () else 0 in
    let kind, i = next tpl st in
    let op, expected = tpl.(kind).(i) in
    s.cl.seq <- s.cl.seq + 1;
    let seq = s.cl.seq in
    let t0 = Clock.now () in
    let frame = Wire.encode_request (Wire.Op { seq; op }) in
    let response =
      if traced then begin
        let a = Clock.now () in
        Spans.child phase.sp ~op:seq Spans.wire_encode t0 a;
        let sent = send conn frame in
        let b = Clock.now () in
        Spans.child phase.sp ~op:seq Spans.transport_send a b;
        let reply = if sent then conn.Transport.recv () else None in
        let c = Clock.now () in
        Spans.child phase.sp ~op:seq Spans.transport_recv b c;
        let decoded = Option.map Wire.decode_response reply in
        Spans.child phase.sp ~op:seq Spans.wire_decode c (Clock.now ());
        (reply, decoded)
      end
      else begin
        let reply = if send conn frame then conn.Transport.recv () else None in
        (reply, Option.map Wire.decode_response reply)
      end
    in
    let t1 = Clock.now () in
    Interval.record phase.iv ~latency:true t0 t1;
    phase.ops <- phase.ops + 1;
    (match response with
    | Some reply, Some (Ok { Wire.seq = echoed; body }) when echoed = seq ->
      phase.bytes <- phase.bytes + String.length frame + String.length reply + 8;
      let expected =
        if !corrupt then begin
          corrupt := false;
          Wire.Busy "falsified expectation"
        end
        else expected
      in
      if body <> expected then phase.failed <- phase.failed + 1
    | _ ->
      (* lost, malformed or out of order: the stream cannot continue *)
      phase.failed <- phase.failed + 1;
      lost := true);
    if traced then Spans.close_root phase.sp ~op:seq r0 (Clock.now ())
  done

let idle_timeout_ns = 5_000_000_000

(* The server counts a response after sending it; it has certainly
   done so once it is back in recv waiting for the next frame. *)
let wait_server_idle s =
  let give_up = Clock.now () + idle_timeout_ns in
  while Atomic.get s.tap.recv_entries < s.cl.seq + 2 && Clock.now () < give_up do
    Stdlib.Domain.cpu_relax ()
  done;
  Atomic.get s.tap.recv_entries >= s.cl.seq + 2

let ops_per_s ph = let rate, _, _ = Interval.summary [ ph.iv ] in rate

let op_text = function
  | Wire.Read { path } -> "read " ^ path
  | Wire.Resolve { path; mode } -> "resolve " ^ path ^ " " ^ mode
  | Wire.Call { path; _ } -> "call " ^ path
  | Wire.Call_handle { handle; _ } -> "call_handle " ^ string_of_int handle
  | Wire.Write { path; _ } -> "write " ^ path
  | op -> Wire.op_label op

(* The first [n] requests of the stream, for the self-test; handle ids
   are the first ones the server hands out. *)
let dump ~seed ~n =
  let rw = World.build ~reference:true ~seed World.dense in
  let tpl = templates rw rw ~handles:(Array.init n_open_handles (fun i -> (i, i))) in
  let st = stream ~seed in
  List.init n (fun _ ->
      let kind, i = next tpl st in
      op_text (fst tpl.(kind).(i)))

let run ~seed ~seconds ~trace ~corrupt =
  let times = ref [] and last = ref None in
  for round = 1 to setup_rounds do
    let tap = if trace then Some (new_tap ()) else None in
    (* every round starts from the same clean heap *)
    Gc.full_major ();
    let t0 = Clock.now () in
    let s = open_session ~seed ~tap in
    times := (float_of_int (Clock.now () - t0) /. 1e9) :: !times;
    if round < setup_rounds then close_session s else last := Some s
  done;
  let s = Option.get !last in
  let setup_s = Outcome.median !times in
  let rw = World.build ~reference:true ~seed World.dense in
  let tpl = templates s.w rw ~handles:s.handles in
  let st = stream ~seed in
  let corrupt = ref corrupt in
  let ns = seconds * 1_000_000_000 in
  Gc.compact ();
  let info = [ "workers", string_of_int (Server.workers s.server); "handles", string_of_int (Array.length s.handles) ] in
  if not trace then begin
    let gc0 = Gc.quick_stat () in
    let ph = new_phase ~ns in
    timed_loop s tpl st ~traced:false ~ns ~corrupt ph;
    close_session s;
    let gc1 = Gc.quick_stat () in
    let rate, p50, p99 = Interval.summary [ ph.iv ] in
    ( {
        Outcome.attempted = ph.ops;
        failed = ph.failed;
        checks = [];
        metrics =
          [
            "setup_s", setup_s;
            "ops_per_s", rate;
            "p50_us", p50 /. 1000.0;
            "p99_us", p99 /. 1000.0;
            ( "minor_words_per_op",
              if ph.ops = 0 then 0.0 else (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int ph.ops );
            "heap_top_mb", Outcome.mb_of_words (max ph.heap_top gc1.Gc.heap_words);
          ];
        info;
      },
      [] )
  end
  else begin
    let plain = new_phase ~ns:(ns / 2) in
    timed_loop s tpl st ~traced:false ~ns:(ns / 2) ~corrupt plain;
    let idle_before = wait_server_idle s in
    Metrics.reset ();
    Metrics.set_enabled true;
    Atomic.set s.tap.active true;
    let gc0 = Gc.quick_stat () in
    let ph = new_phase ~ns:(ns / 2) in
    timed_loop s tpl st ~traced:true ~ns:(ns / 2) ~corrupt ph;
    let idle_after = wait_server_idle s in
    Atomic.set s.tap.active false;
    Metrics.set_enabled false;
    let snap = Metrics.snapshot () in
    close_session s;
    let gc1 = Gc.quick_stat () in
    let client = [ ph.sp ] and server = [ s.tap.sp ] in
    (* client round trips: the latency windows, encode to decode *)
    let round_trips = Array.fold_left ( + ) 0 ph.iv.Interval.busy in
    let round_trip_ns = Outcome.ratio round_trips ph.ops in
    let busy_ns = Spans.mean_ns server Spans.server_busy in
    let requests = Outcome.counter snap "serve.requests" and responses = Outcome.counter snap "serve.responses" in
    let targets =
      Array.map (fun path -> { Probe.subject = s.w.World.user_subject; path; mode = Access_mode.Read }) s.w.World.files
    in
    let metrics =
      [
        "wire.encode_ns", Spans.mean_ns client Spans.wire_encode;
        "wire.decode_ns", Spans.mean_ns client Spans.wire_decode;
        "wire.bytes_per_op", Outcome.ratio ph.bytes ph.ops;
        "transport.send_ns", Spans.mean_ns server Spans.server_send;
        "transport.recv_wait_us", Spans.mean_ns server Spans.server_recv_wait /. 1000.0;
        "transport.rtt_us", (round_trip_ns -. busy_ns) /. 1000.0;
        "server.busy_us", busy_ns /. 1000.0;
        "server.share", Outcome.ratio (Spans.total server Spans.server_busy) round_trips;
        "linker.link_us", Lat.mean s.w.World.link_ns /. 1000.0;
        "trace.overhead_ratio", (if ops_per_s ph = 0.0 then 0.0 else ops_per_s plain /. ops_per_s ph);
        "untraced_share", Spans.untraced_share client;
        "failed_ratio", Outcome.ratio (plain.failed + ph.failed) (plain.ops + ph.ops);
      ]
      @ Outcome.counter_metrics snap ~ops:ph.ops ~linked_calls:0
      @ Outcome.gc_metrics gc0 gc1 ~ops:ph.ops
      @ Probe.run s.w targets
    in
    ( {
        Outcome.attempted = plain.ops + ph.ops;
        failed = plain.failed + ph.failed;
        checks =
          [
            ("server idle at the phase switch", idle_before && idle_after, "");
            ( "serve.requests = serve.responses = ops",
              requests = responses && responses = ph.ops,
              Printf.sprintf "%d / %d / %d" requests responses ph.ops );
            Outcome.cache_conservation snap;
          ];
        metrics;
        info = info @ [ "layer_shares", Spans.shares_json (client @ server) ];
      },
      client @ server )
  end
