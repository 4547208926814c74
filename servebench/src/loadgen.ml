(** The load generator: spawns [jfeed serve] as a child process, sets it
    up, and drives a closed loop over its Unix socket.

    Single process, single thread: one select(2) loop multiplexes the
    connections.  Every response is checked against the payload
    in-process grading gave for the same submission. *)

(** {2 Line I/O} *)

type conn = {
  fd : Unix.file_descr;
  mutable data : Bytes.t;
  mutable lo : int;  (** start of unconsumed bytes *)
  mutable hi : int;  (** end of received bytes *)
  mutable scan : int;  (** bytes before this hold no newline *)
}

let conn fd = { fd; data = Bytes.create 65536; lo = 0; hi = 0; scan = 0 }

(* One read(2) into the buffer; 0 at end of stream. *)
let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.data c.lo c.data 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.scan <- c.scan - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.data then begin
    let bigger = Bytes.create (2 * Bytes.length c.data) in
    Bytes.blit c.data 0 bigger 0 c.hi;
    c.data <- bigger
  end;
  let rec go () =
    try Unix.read c.fd c.data c.hi (Bytes.length c.data - c.hi)
    with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let n = go () in
  c.hi <- c.hi + n;
  n

let next_line c =
  let rec find i =
    if i >= c.hi then begin
      c.scan <- c.hi;
      None
    end
    else if Bytes.unsafe_get c.data i = '\n' then begin
      let line = Bytes.sub_string c.data c.lo (i - c.lo) in
      c.lo <- i + 1;
      c.scan <- c.lo;
      Some line
    end
    else find (i + 1)
  in
  find c.scan

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

let rec read_line c =
  match next_line c with
  | Some l -> l
  | None -> if fill c = 0 then failwith "daemon closed the connection" else read_line c

(** Send one line, wait for its response line. *)
let call c line =
  write_all c.fd (line ^ "\n") 0;
  read_line c

(** {2 Response checks} *)

(* A correct response is [envelope ^ payload ^ "}"]: the request sent
   no id, fuel, deadline or telemetry field. *)
let envelope ~cached =
  if cached then {|{"op":"grade","cached":true,"result":|}
  else {|{"op":"grade","cached":false,"result":|}

let grade_ok ~cached ~payload line =
  let pre = envelope ~cached in
  let lp = String.length pre and n = String.length payload in
  String.length line = lp + n + 1
  && String.starts_with ~prefix:pre line
  && line.[lp + n] = '}'
  &&
  let rec eq i = i = n || (line.[lp + i] = payload.[i] && eq (i + 1)) in
  eq 0

(** Why a response line failed its check. *)
let diagnose ~cached line =
  if String.starts_with ~prefix:{|{"op":"error"|} line then "error line"
  else if String.starts_with ~prefix:{|{"op":"grade","rejected":"overloaded"|} line then "shed"
  else if not (String.starts_with ~prefix:(envelope ~cached) line) then "envelope"
  else "payload mismatch"

(** {2 The daemon process} *)

type daemon = { pid : int; a : conn; b : conn }

(* Every child still running, so an early exit can stop and reap it. *)
let live = ref []

let reap pid =
  let rec go () =
    try ignore (Unix.waitpid [] pid) with
    | Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ();
  live := List.filter (( <> ) pid) !live

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !live

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ ->
      live := List.filter (( <> ) pid) !live;
      true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let spawn ~jfeed ~socket ~jobs =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process jfeed
          [| jfeed; "serve"; "--socket"; socket; "--jobs"; string_of_int jobs |]
          null null Unix.stderr)
  in
  live := pid :: !live;
  pid

(* The socket exists once the daemon has bound it; poll until a connect
   succeeds. *)
let connect ~pid ~socket ~timeout_s =
  let t0 = Clock.now_ns () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> conn fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EINTR), _, _) ->
        Unix.close fd;
        if exited pid then failwith "jfeed serve exited during start-up"
        else if Clock.s_between t0 (Clock.now_ns ()) > timeout_s then
          failwith "jfeed serve did not open its socket"
        else begin
          Unix.sleepf 0.0002;
          go ()
        end
  in
  go ()

(** Stop the daemon with a [shutdown] request and wait until it has
    exited; SIGKILL if it outlives [grace_s]. *)
let stop ?(grace_s = 10.0) d =
  (try ignore (call d.a {|{"op":"shutdown"}|}) with _ -> ());
  (try Unix.close d.a.fd with Unix.Unix_error _ -> ());
  (try Unix.close d.b.fd with Unix.Unix_error _ -> ());
  let t0 = Clock.now_ns () in
  let rec wait () =
    if exited d.pid then ()
    else if Clock.s_between t0 (Clock.now_ns ()) > grace_s then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap d.pid
    end
    else begin
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

(** Spawn and set up a daemon: it has answered one [stats] request,
    graded each warm-up, then each warm-set submission, one at a time
    on the first connection, every answer checked.  Returns the daemon
    and the set-up time in seconds, measured from just before the
    spawn. *)
let setup ~jfeed ~socket ~jobs ~warmup ~warm =
  let t0 = Clock.now_ns () in
  let pid = spawn ~jfeed ~socket ~jobs in
  let a = connect ~pid ~socket ~timeout_s:60.0 in
  let b = connect ~pid ~socket ~timeout_s:60.0 in
  let d = { pid; a; b } in
  let stats = call a {|{"op":"stats"}|} in
  if not (String.starts_with ~prefix:{|{"op":"stats"|} stats) then
    failwith ("set-up: bad stats response: " ^ stats);
  List.iter
    (fun (line, payload) ->
      let resp = call a line in
      if not (grade_ok ~cached:false ~payload resp) then
        failwith ("set-up: warm-up grade " ^ diagnose ~cached:false resp))
    (warmup @ warm);
  (d, Clock.s_between t0 (Clock.now_ns ()))

(** {2 The timed closed loop} *)

(** What one timed segment measured. *)
type segment = {
  completed : int;  (** responses received *)
  correct : int;
  failures : (string * int) list;  (** reason → count *)
  wall_s : float;  (** first send to last response *)
  daemon_cpu_ms : float;  (** daemon user+sys CPU over the segment *)
  steal_ticks : int;  (** all CPUs, over the segment *)
  generator_cpu_ms : float;  (** this process's CPU over the segment *)
}

(** [closed_loop d ~window ~lockstep ~lo ~hi ~line ~check ~latency_ms]
    sends requests [lo .. hi-1] in order, each connection keeping
    [window] in flight and sending its next request as soon as a
    response frees a slot — or, with [lockstep], only once every
    connection's requests are answered, all connections then sending
    together.  [line i] is request [i]'s line with its newline;
    [check i resp] says whether the response is correct, and a correct
    response's latency lands in [latency_ms.(i)]. *)
let closed_loop ?(stall_s = 60.0) d ~window ~lockstep ~cached ~lo ~hi ~line ~check
    ~latency_ms =
  let conns = [| d.a; d.b |] in
  let inflight = Array.map (fun _ -> Queue.create ()) conns in
  let dead = Array.map (fun _ -> false) conns in
  let failures = Hashtbl.create 4 in
  let fail reason =
    Hashtbl.replace failures reason
      (1 + Option.value ~default:0 (Hashtbl.find_opt failures reason))
  in
  let next = ref lo and completed = ref 0 and correct = ref 0 in
  let send k =
    while (not dead.(k)) && Queue.length inflight.(k) < window && !next < hi do
      let i = !next in
      incr next;
      Queue.push (i, Clock.now_ns ()) inflight.(k);
      try write_all conns.(k).fd (line i) 0
      with Unix.Unix_error _ -> dead.(k) <- true
    done
  in
  let cpu0 = Procfs.cpu_ms d.pid and steal0 = Procfs.steal_ticks () in
  let gen0 = Clock.cpu_ns () in
  let t_first = Clock.now_ns () in
  Array.iteri (fun k _ -> send k) conns;
  let t_last = ref t_first in
  let rec loop () =
    let busy =
      List.filter
        (fun k -> (not dead.(k)) && not (Queue.is_empty inflight.(k)))
        (List.init (Array.length conns) Fun.id)
    in
    if busy <> [] then begin
      let ready, _, _ =
        try Unix.select (List.map (fun k -> conns.(k).fd) busy) [] [] stall_s
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      if ready = [] && Clock.s_between !t_last (Clock.now_ns ()) > stall_s then
        List.iter (fun k -> dead.(k) <- true) busy
      else
        List.iter
          (fun k ->
            let c = conns.(k) in
            if List.mem c.fd ready then begin
              let n = try fill c with Unix.Unix_error _ -> 0 in
              if n = 0 then dead.(k) <- true
              else begin
                let now = Clock.now_ns () in
                let rec drain () =
                  match next_line c with
                  | Some resp when not (Queue.is_empty inflight.(k)) ->
                      let i, sent = Queue.pop inflight.(k) in
                      incr completed;
                      t_last := now;
                      if check i resp then begin
                        incr correct;
                        latency_ms.(i) <- Clock.ms_between sent now
                      end
                      else fail (diagnose ~cached resp);
                      drain ()
                  | Some _ ->
                      fail "unrequested line";
                      drain ()
                  | None -> ()
                in
                drain ();
                if not lockstep then send k
                else if Array.for_all Queue.is_empty inflight then
                  Array.iteri (fun k _ -> send k) conns
              end
            end)
          busy;
      loop ()
    end
  in
  loop ();
  let gen_ms = Clock.ms_between gen0 (Clock.cpu_ns ()) in
  let cpu1 = Procfs.cpu_ms d.pid and steal1 = Procfs.steal_ticks () in
  for _ = 1 to hi - lo - !completed do
    fail "no answer"
  done;
  {
    completed = !completed;
    correct = !correct;
    failures = Hashtbl.fold (fun r n acc -> (r, n) :: acc) failures [];
    wall_s = Clock.s_between t_first !t_last;
    daemon_cpu_ms = cpu1 -. cpu0;
    steal_ticks = steal1 - steal0;
    generator_cpu_ms = gen_ms;
  }
