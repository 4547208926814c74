(** The serving tier: wire protocol, LRU result cache, content
    addressing, metrics, and the daemon loop end to end.

    The headline properties:
    - α-renaming and whitespace re-flows of a submission map to the same
      cache key (qcheck, over generated mutants of every assignment);
    - through a live serving session, every request whose key equals an
      earlier one receives a byte-identical feedback payload, marked
      [cached:true] — checked over 60 mutants of one submission;
    - a malformed line costs one [error] response, never the daemon. *)

open Jfeed_service
module Spec = Jfeed_gen.Spec
module Mutate = Jfeed_gen.Mutate
module Bundles = Jfeed_kb.Bundles

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let index_of ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let contains ~sub s = index_of ~sub s <> None

(* ------------------------------------------------------------------ *)
(* Proto: the JSON reader *)

let parses s = Result.is_ok (Proto.parse_json s)

let test_json_values () =
  check "object" true (parses {|{"a":1,"b":[true,false,null],"c":"x"}|});
  check "nested" true (parses {|{"a":{"b":{"c":[1,2,3]}}}|});
  check "floats" true (parses {|[0.5, -1e3, 2E-2, 12.25]|});
  check "empty forms" true (parses {|[{}, [], "", 0]|});
  Alcotest.(check (option (float 1e-9)))
    "number value" (Some 12.25)
    (match Proto.parse_json "12.25" with
    | Ok (Proto.Num f) -> Some f
    | _ -> None);
  check "escapes decode" true
    (Proto.parse_json {|"a\nb\t\"c\"\\d"|} = Ok (Proto.Str "a\nb\t\"c\"\\d"));
  check "unicode escape" true
    (Proto.parse_json {|"é"|} = Ok (Proto.Str "\xc3\xa9"));
  check "surrogate pair" true
    (Proto.parse_json {|"😀"|} = Ok (Proto.Str "\xf0\x9f\x98\x80"))

let test_json_rejects () =
  let rejects s = check s true (Result.is_error (Proto.parse_json s)) in
  rejects "";
  rejects "{";
  rejects {|{"a":}|};
  rejects {|{"a":1,}|};
  rejects {|[1 2]|};
  rejects {|"unterminated|};
  rejects {|"bad \q escape"|};
  rejects {|"lone surrogate \ud800"|};
  rejects "01";
  rejects "1.";
  rejects "nul";
  rejects {|{"a":1} trailing|};
  rejects "\"raw \n newline\"";
  (* the depth limit keeps adversarial nesting from overflowing *)
  rejects (String.make 200 '[' ^ String.make 200 ']')

let test_request_parsing () =
  (match Proto.request_of_line {|{"op":"grade","assignment":"a1","source":"s","id":"r7","fuel":500}|} with
  | Ok (Proto.Grade g) ->
      check_str "assignment" "a1" g.assignment;
      check_str "source" "s" g.source;
      check "id" true (g.id = Some "r7");
      check "fuel" true (g.fuel = Some 500);
      check "deadline absent" true (g.deadline_s = None);
      check "with_tests absent" true (g.with_tests = None)
  | _ -> Alcotest.fail "grade request did not parse");
  check "stats" true
    (Proto.request_of_line {|{"op":"stats"}|} = Ok (Proto.Stats { id = None }));
  check "shutdown with id" true
    (Proto.request_of_line {|{"op":"shutdown","id":"z"}|}
    = Ok (Proto.Shutdown { id = Some "z" }));
  check "unknown fields ignored" true
    (match Proto.request_of_line {|{"op":"stats","future":1}|} with
    | Ok (Proto.Stats _) -> true
    | _ -> false)

let test_request_errors () =
  let err line =
    match Proto.request_of_line line with
    | Error (id, msg) -> (id, msg)
    | Ok _ -> Alcotest.fail ("unexpectedly parsed: " ^ line)
  in
  check "malformed JSON has no id" true (fst (err "not json") = None);
  (* the id survives even when the request itself is broken, so the
     error response can still be correlated *)
  let id, msg = err {|{"op":"grade","id":"r9"}|} in
  check "id recovered" true (id = Some "r9");
  check "message names the field" true
    (msg = {|grade request lacks "assignment"|});
  check "unknown op" true
    (snd (err {|{"op":"fly"}|}) = {|unknown op "fly"|});
  check "non-object" true (fst (err "[1,2]") = None);
  check "ill-typed fuel" true
    (snd (err {|{"op":"grade","assignment":"a","source":"s","fuel":"lots"}|})
    = {|field "fuel" must be an integer|})

let test_response_shapes () =
  check_str "grade response"
    {|{"id":"r1","op":"grade","cached":true,"result":{"x":1}}|}
    (Proto.grade_response ~id:"r1" ~cached:true ~fuel:None {|{"x":1}|});
  check_str "fuel appears when budgeted"
    {|{"op":"grade","cached":false,"fuel":42,"result":{}}|}
    (Proto.grade_response ~cached:false ~fuel:(Some 42) "{}");
  check_str "error escapes the message"
    {|{"op":"error","error":"bad \"x\""}|}
    (Proto.error_response {|bad "x"|});
  (* response lines must themselves parse as JSON *)
  check "responses are valid JSON" true
    (parses (Proto.grade_response ~id:"a\"b" ~cached:false ~fuel:None "{}")
    && parses (Proto.shutdown_response ~id:"z" ()))

(* ------------------------------------------------------------------ *)
(* Cache: LRU over cache keys *)

let test_cache_lru () =
  let c = Cache.create ~cap:2 in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  check_int "size" 2 (Cache.size c);
  (* touching [a] makes [b] the eviction victim *)
  check "find bumps recency" true (Cache.find c "a" = Some 1);
  Cache.add c "c" 3;
  check_int "capacity held" 2 (Cache.size c);
  check "b evicted" false (Cache.mem c "b");
  check "a survived" true (Cache.mem c "a");
  check "c present" true (Cache.mem c "c")

let test_cache_replace_and_disable () =
  let c = Cache.create ~cap:2 in
  Cache.add c "k" 1;
  Cache.add c "k" 2;
  check_int "replace does not grow" 1 (Cache.size c);
  check "replaced value" true (Cache.find c "k" = Some 2);
  let off = Cache.create ~cap:0 in
  Cache.add off "k" 1;
  check_int "cap 0 stores nothing" 0 (Cache.size off);
  check "cap 0 never hits" true (Cache.find off "k" = None)

let test_cache_churn () =
  (* a long insert/lookup churn keeps exactly the cap newest-or-touched *)
  let c = Cache.create ~cap:8 in
  for i = 0 to 99 do
    Cache.add c (string_of_int i) i;
    ignore (Cache.find c (string_of_int (max 0 (i - 3))))
  done;
  check_int "cap respected" 8 (Cache.size c);
  check "newest present" true (Cache.mem c "99");
  check "oldest gone" false (Cache.mem c "0")

(* ------------------------------------------------------------------ *)
(* Metrics *)

let bare_view =
  {
    Metrics.cache_size = 1;
    cache_cap = 2;
    queue_depth = 0;
    queue_cap = 64;
    serving = None;
    slo = None;
    events = None;
  }

(* One integer field of a rendered stats answer, by path. *)
let stats_field m view path =
  match Proto.parse_json (Proto.stats_response (Metrics.stats m view)) with
  | Error e -> Alcotest.failf "stats is not JSON: %s" e
  | Ok j -> (
      match
        List.fold_left (fun j k -> Option.bind j (Proto.member k)) (Some j) path
      with
      | Some (Proto.Num n) -> int_of_float n
      | _ -> Alcotest.failf "no number at %s" (String.concat "." path))

let test_metrics_percentiles () =
  let m = Metrics.create () in
  check "empty percentile is 0" true (Metrics.percentile m 0.95 = 0.0);
  (* 1..100 ms: nearest-rank p50 is the 50th sample, p95 the 95th *)
  for i = 1 to 100 do
    Metrics.record_grade m ~outcome:"graded" ~hit:(i mod 2 = 0)
      ~ms:(float_of_int i)
  done;
  check "p50" true (Metrics.percentile m 0.50 = 50.0);
  check "p95" true (Metrics.percentile m 0.95 = 95.0);
  Metrics.observe_queue_depth m 7;
  Metrics.observe_queue_depth m 3;
  let field = stats_field m bare_view in
  check_int "grades" 100 (field [ "grades" ]);
  check_int "hits" 50 (field [ "cache"; "hits" ]);
  check_int "misses" 50 (field [ "cache"; "misses" ]);
  check_int "graded" 100 (field [ "outcomes"; "graded" ]);
  check_int "queue max latches" 7 (field [ "queue"; "max" ])

(* Every family and every stats path is one row of the table, and the
   two renderers agree with it. *)
let test_metrics_table () =
  let m = Metrics.create () in
  Metrics.record_grade m ~outcome:"graded" ~hit:false ~ms:3.0;
  let full =
    {
      bare_view with
      Metrics.serving =
        Some
          {
            Metrics.shard_counters = [| (1, 2); (3, 4) |];
            conns = 2;
            store = Some (1, 2, 3, 4);
          };
      slo = Some (50.0, 0.999);
      events = Some (1, 2, 3);
    }
  in
  let rows = Metrics.table m full in
  let families = List.filter_map (fun r -> r.Metrics.family) rows in
  let paths = List.filter_map (fun r -> r.Metrics.path) rows in
  let once what xs =
    check_int (what ^ " declared once")
      (List.length xs)
      (List.length (List.sort_uniq compare xs))
  in
  once "each family" families;
  once "each stats path" paths;
  check "every row is rendered somewhere" true
    (List.for_all
       (fun r -> r.Metrics.family <> None || r.Metrics.path <> None)
       rows);
  (match Proto.parse_json (Proto.stats_response (Metrics.stats m full)) with
  | Ok (Proto.Obj fields) ->
      once "each top-level stats key" (List.map fst fields);
      check_int "one top-level key per first path segment"
        (List.length (List.sort_uniq compare (List.map List.hd paths)) + 1)
        (List.length fields)
  | _ -> Alcotest.fail "stats is not one JSON object");
  let lines = String.split_on_char '\n' (Metrics.exposition m full) in
  check_int "one HELP line per family" (List.length families)
    (List.length (List.filter (String.starts_with ~prefix:"# HELP ") lines));
  check_int "one TYPE line per family" (List.length families)
    (List.length (List.filter (String.starts_with ~prefix:"# TYPE ") lines));
  check "grades counter is the stats row" true
    (List.mem "jfeed_grades_total 1" lines
    && stats_field m full [ "grades" ] = 1)

(* ------------------------------------------------------------------ *)
(* Normalize: content addressing *)

let base_source = Spec.source_of_index Bundles.assignment1.Bundles.gen 0

let key src =
  fst
    (Normalize.cache_key ~assignment:"assignment1" ~fuel:None ~deadline_s:None
       ~with_tests:true src)

let test_fingerprint_collapses_names () =
  let fp = Normalize.fingerprint base_source in
  check "parses to an AST fingerprint" true fp.Normalize.ast;
  check_str "α-renaming preserved the key" (key base_source)
    (key (Mutate.alpha_rename ~seed:7 base_source));
  check_str "whitespace preserved the key" (key base_source)
    (key (Mutate.whitespace ~seed:7 base_source))

let test_key_scoping () =
  let k = key base_source in
  let other ~assignment ~fuel ~with_tests =
    fst
      (Normalize.cache_key ~assignment ~fuel ~deadline_s:None ~with_tests
         base_source)
  in
  check "assignment scopes the key" false
    (k = other ~assignment:"mitx-derivatives" ~fuel:None ~with_tests:true);
  check "fuel scopes the key" false
    (k = other ~assignment:"assignment1" ~fuel:(Some 100) ~with_tests:true);
  check "with_tests scopes the key" false
    (k = other ~assignment:"assignment1" ~fuel:None ~with_tests:false);
  check "KB revision is part of the key" true
    (let r = Bundles.revision () in
     String.length r = 32 && contains ~sub:r k)

let test_fingerprint_raw_fallback () =
  let fp = Normalize.fingerprint "int int int (((" in
  check "unparseable falls back to raw bytes" false fp.Normalize.ast;
  check "raw fallback is byte-exact" false
    (Normalize.fingerprint "int int int ((( " = fp)

let prop_mutants_share_key =
  (* ≥60 generated mutants across all twelve assignment spaces: each
     α-renamed / re-flowed variant must land on its base's cache key. *)
  let gen =
    QCheck.Gen.(
      let* bi = int_bound (List.length Bundles.all - 1) in
      let b = List.nth Bundles.all bi in
      let* idx = int_bound (Spec.size b.Bundles.gen - 1) in
      let* seed = int_bound 10_000 in
      return (bi, idx, seed))
  in
  let print (bi, idx, seed) =
    let b = List.nth Bundles.all bi in
    Printf.sprintf "%s #%d seed %d" b.Bundles.grading.Jfeed_core.Grader.a_id
      idx seed
  in
  QCheck.Test.make ~count:60 ~name:"mutants map to the base cache key"
    (QCheck.make ~print gen)
    (fun (bi, idx, seed) ->
      let b = List.nth Bundles.all bi in
      let id = b.Bundles.grading.Jfeed_core.Grader.a_id in
      let src = Spec.source_of_index b.Bundles.gen idx in
      let key src =
        fst
          (Normalize.cache_key ~assignment:id ~fuel:None ~deadline_s:None
             ~with_tests:true src)
      in
      let k = key src in
      key (Mutate.alpha_rename ~seed src) = k
      && key (Mutate.whitespace ~seed src) = k
      && key (Mutate.rename_and_reflow ~seed src) = k)

(* ------------------------------------------------------------------ *)
(* Server: end-to-end sessions over a pipe pair *)

let run_session ?(config = Server.default_config) lines =
  let req_r, req_w = Unix.pipe () in
  let resp_r, resp_w = Unix.pipe () in
  let server =
    Domain.spawn (fun () ->
        let outcome = Server.serve_fd config req_r resp_w in
        Unix.close resp_w;
        outcome)
  in
  let oc = Unix.out_channel_of_descr req_w in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  flush oc;
  Unix.close req_w;
  let ic = Unix.in_channel_of_descr resp_r in
  let rec collect acc =
    match input_line ic with
    | l -> collect (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let responses = collect [] in
  let outcome = Domain.join server in
  Unix.close req_r;
  Unix.close resp_r;
  (outcome, responses)

let grade_line ?id src =
  Printf.sprintf {|{"op":"grade",%s"assignment":"assignment1","source":"%s"}|}
    (match id with Some i -> Printf.sprintf {|"id":"%s",|} i | None -> "")
    (Jfeed_trace.Trace.json_escape src)

(* The response's feedback payload: everything from "result": on. *)
let payload_of line =
  match index_of ~sub:{|"result":|} line with
  | Some i -> String.sub line i (String.length line - i)
  | None -> Alcotest.fail ("no result payload in: " ^ line)

let cached_of line =
  if contains ~sub:{|"cached":true|} line then true
  else if contains ~sub:{|"cached":false|} line then false
  else Alcotest.fail ("no cached marker in: " ^ line)

let test_session_cached_mutants () =
  (* 60 mutants of one submission: every one must be served from the
     cache (or its in-flight twin) with a byte-identical payload. *)
  let mutants =
    List.init 60 (fun i ->
        match i mod 3 with
        | 0 -> Mutate.alpha_rename ~seed:i base_source
        | 1 -> Mutate.whitespace ~seed:i base_source
        | _ -> Mutate.rename_and_reflow ~seed:i base_source)
  in
  let lines =
    (grade_line ~id:"base" base_source
    :: List.mapi (fun i m -> grade_line ~id:(Printf.sprintf "m%d" i) m) mutants)
    @ [ {|{"op":"stats"}|}; {|{"op":"shutdown"}|} ]
  in
  let outcome, responses = run_session lines in
  check "session ended by shutdown" true (outcome = `Shutdown);
  check_int "one response per request" (List.length lines)
    (List.length responses);
  let grades = List.filteri (fun i _ -> i <= 60) responses in
  let base = List.hd grades in
  check "first serving is a miss" false (cached_of base);
  let expected = payload_of base in
  List.iteri
    (fun i r ->
      check (Printf.sprintf "mutant %d cached" i) true (cached_of r);
      check_str
        (Printf.sprintf "mutant %d payload byte-identical" i)
        expected (payload_of r))
    (List.tl grades);
  let stats = List.nth responses 61 in
  check "60 hits" true (contains ~sub:{|"hits":60,"misses":1|} stats)

let test_session_survives_malformed () =
  let outcome, responses =
    run_session
      [
        "garbage";
        {|{"op":"grade","id":"g"}|};
        {|{"op":"grade","id":"ok","assignment":"nope","source":"x"}|};
        grade_line ~id:"real" base_source;
        {|{"op":"stats","id":"s"}|};
        {|{"op":"shutdown","id":"z"}|};
      ]
  in
  check "shutdown reached" true (outcome = `Shutdown);
  check_int "all requests answered" 6 (List.length responses);
  check "malformed line → error response" true
    (contains ~sub:{|"op":"error"|} (List.nth responses 0));
  check "id echoed on field error" true
    (String.starts_with ~prefix:{|{"id":"g","op":"error"|}
       (List.nth responses 1));
  check "unknown assignment is an error, not a crash" true
    (String.starts_with ~prefix:{|{"id":"ok","op":"error"|}
       (List.nth responses 2));
  check "the daemon still grades afterwards" true
    (String.starts_with ~prefix:{|{"id":"real","op":"grade","cached":false|}
       (List.nth responses 3))

let test_session_eof_without_shutdown () =
  let outcome, responses = run_session [ grade_line base_source ] in
  check "EOF ends the connection" true (outcome = `Eof);
  check_int "the grade was still answered" 1 (List.length responses)

(* ------------------------------------------------------------------ *)
(* Entry codec: the durable store's value bytes *)

let test_entry_codec () =
  let roundtrip e =
    check "codec roundtrips" true
      (Server.decode_entry (Server.encode_entry e) = Some e)
  in
  roundtrip
    {
      Server.outcome_class = "graded";
      fuel_spent = Some 1234;
      diag_counts = [ ("dead-store", 2); ("unreachable", 0) ];
      result_json = {|{"outcome":"graded","score":9}|};
    };
  roundtrip
    {
      Server.outcome_class = "rejected";
      fuel_spent = None;
      diag_counts = [];
      result_json = "";
    };
  (* the JSON tail is raw bytes to the end — newlines included *)
  roundtrip
    {
      Server.outcome_class = "degraded";
      fuel_spent = Some 0;
      diag_counts = [ ("use-before-init", 7) ];
      result_json = "{\"a\":\n\"b c\"}";
    };
  check "garbage decodes to None" true (Server.decode_entry "nope" = None);
  check "truncated header decodes to None" true
    (Server.decode_entry "graded\n12\n" = None);
  check "bad diag count decodes to None" true
    (Server.decode_entry "graded\n-\nx\n{}" = None)

(* ------------------------------------------------------------------ *)
(* Store: the append-only checksummed log *)

let fresh_dir () =
  let f = Filename.temp_file "jfeed-store" "" in
  Sys.remove f;
  f

let log_file dir = Filename.concat dir Store.file_name

let replay dir =
  let acc = ref [] in
  let t, recovery =
    Store.open_dir dir ~f:(fun ~key ~value -> acc := (key, value) :: !acc)
  in
  (t, recovery, List.rev !acc)

let test_store_roundtrip () =
  let dir = fresh_dir () in
  let t, r, entries = replay dir in
  check_int "fresh log is empty" 0 r.Store.recovered;
  check "no entries" true (entries = []);
  Store.append t ~key:"k1" ~value:"v1";
  Store.append t ~key:"k2" ~value:(String.make 10_000 'x');
  Store.append t ~key:"k1" ~value:"v1'";
  check_int "appended counted" 3 (Store.appended t);
  Store.close t;
  let t2, r2, entries2 = replay dir in
  check_int "all records recovered" 3 r2.Store.recovered;
  check_int "no bytes dropped" 0 r2.Store.dropped_bytes;
  check "replay is append-ordered" true
    (entries2
    = [ ("k1", "v1"); ("k2", String.make 10_000 'x'); ("k1", "v1'") ]);
  Store.close t2

let test_store_torn_tail () =
  let dir = fresh_dir () in
  let t, _, _ = replay dir in
  Store.append t ~key:"a" ~value:"1";
  Store.append t ~key:"b" ~value:"2";
  Store.close t;
  let intact = (Unix.stat (log_file dir)).Unix.st_size in
  (* a crash mid-append leaves a torn tail: garbage after the prefix *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (log_file dir)
  in
  let garbage = "torn-tail-garbage" in
  output_string oc garbage;
  close_out oc;
  let t2, r2, entries2 = replay dir in
  check_int "valid prefix recovered" 2 r2.Store.recovered;
  check_int "torn bytes reported" (String.length garbage)
    r2.Store.dropped_bytes;
  check "prefix entries intact" true (entries2 = [ ("a", "1"); ("b", "2") ]);
  (* the file was truncated back to the valid prefix, so the next
     append never interleaves with garbage *)
  check "file truncated to valid prefix" true
    ((Unix.stat (log_file dir)).Unix.st_size = intact);
  Store.append t2 ~key:"c" ~value:"3";
  Store.close t2;
  let t3, r3, entries3 = replay dir in
  check_int "append after recovery reads back" 3 r3.Store.recovered;
  check "third entry present" true
    (entries3 = [ ("a", "1"); ("b", "2"); ("c", "3") ]);
  Store.close t3

let test_store_corruption_stops_replay () =
  let dir = fresh_dir () in
  let t, _, _ = replay dir in
  Store.append t ~key:"a" ~value:"11111111";
  Store.append t ~key:"b" ~value:"22222222";
  Store.append t ~key:"c" ~value:"33333333";
  Store.close t;
  (* flip one payload byte inside the second record: its checksum no
     longer matches, so replay keeps record 1 and drops 2 and 3 *)
  let path = log_file dir in
  let size = (Unix.stat path).Unix.st_size in
  let record_len = size / 3 in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (record_len + (record_len / 2)) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "X") 0 1);
  Unix.close fd;
  let t2, r2, entries2 = replay dir in
  check_int "replay stops at the corrupt record" 1 r2.Store.recovered;
  check "dropped bytes cover the suffix" true
    (r2.Store.dropped_bytes = size - record_len);
  check "the valid prefix survives" true (entries2 = [ ("a", "11111111") ]);
  Store.close t2

let test_store_compaction () =
  let dir = fresh_dir () in
  let t, _, _ = replay dir in
  for i = 0 to 9 do
    Store.append t ~key:(Printf.sprintf "k%d" i) ~value:(string_of_int i)
  done;
  let before = (Unix.stat (log_file dir)).Unix.st_size in
  Store.compact t [ ("k8", "8"); ("k9", "9") ];
  check_int "compactions counted" 1 (Store.compactions t);
  check "log shrank" true ((Unix.stat (log_file dir)).Unix.st_size < before);
  (* the compacted log is still appendable and still checksummed *)
  Store.append t ~key:"k10" ~value:"10";
  Store.close t;
  let t2, r2, entries2 = replay dir in
  check_int "live set + new append recovered" 3 r2.Store.recovered;
  check "compaction kept exactly the live entries" true
    (entries2 = [ ("k8", "8"); ("k9", "9"); ("k10", "10") ]);
  Store.close t2

let test_store_single_writer () =
  let dir = fresh_dir () in
  let t, _, _ = replay dir in
  Store.append t ~key:"k" ~value:"v";
  (* The lock is per-process (fcntl), so a second open in this process
     would succeed; real double-serve protection is cross-process and
     exercised by the cram suite.  Here: close releases cleanly. *)
  Store.close t;
  let t2, r2, _ = replay dir in
  check_int "reopen after close" 1 r2.Store.recovered;
  Store.close t2

(* ------------------------------------------------------------------ *)
(* Shards: shard-count invariance *)

let prop_shards_invariant =
  (* Whatever the shard count, the sharded cache answers lookups
     identically (sharding is routing, not semantics) — checked over
     random add streams against the 1-shard oracle, capacity ample so
     eviction never fires. *)
  let gen =
    QCheck.Gen.(
      let* shards = int_range 1 12 in
      let* ops =
        list_size (int_bound 200) (pair (int_bound 20) small_nat)
      in
      return (shards, ops))
  in
  let print (shards, ops) =
    Printf.sprintf "shards=%d ops=%d" shards (List.length ops)
  in
  QCheck.Test.make ~count:100
    ~name:"sharded cache is shard-count-invariant"
    (QCheck.make ~print gen)
    (fun (shards, ops) ->
      let one = Shards.create ~shards:1 ~cap:10_000 in
      let many = Shards.create ~shards ~cap:10_000 in
      List.iter
        (fun (k, v) ->
          let key = "key" ^ string_of_int k in
          Shards.add one key v;
          Shards.add many key v)
        ops;
      Shards.size one = Shards.size many
      && List.for_all
           (fun k ->
             let key = "key" ^ string_of_int k in
             Shards.find one key = Shards.find many key)
           (List.init 22 Fun.id))

let test_shards_capacity_split () =
  (* total capacity is divided without loss: 10 over 4 shards still
     holds exactly 10 entries *)
  let s = Shards.create ~shards:4 ~cap:10 in
  for i = 0 to 99 do
    Shards.add s (string_of_int i) i
  done;
  check "no capacity lost to integer division" true (Shards.size s <= 10);
  (* per-shard counters tally every find *)
  ignore (Shards.find s "miss-key");
  let hits, misses =
    Array.fold_left
      (fun (h, m) (sh, sm) -> (h + sh, m + sm))
      (0, 0) (Shards.counters s)
  in
  check_int "one lookup counted" 1 (hits + misses);
  check_int "it was a miss" 1 misses

(* ------------------------------------------------------------------ *)
(* Durable serving: restarts replay the cache byte-identically *)

let test_durable_replay_across_restarts () =
  let dir = fresh_dir () in
  let config = { Server.default_config with cache_dir = Some dir } in
  let lines = [ grade_line ~id:"g" base_source; {|{"op":"shutdown"}|} ] in
  let _, first = run_session ~config lines in
  check "first run is a miss" false (cached_of (List.hd first));
  let expected = payload_of (List.hd first) in
  (* same daemon config, fresh process state: the log replays the
     cache, and an α-renamed twin of the submission hits it *)
  let mutant = Mutate.alpha_rename ~seed:99 base_source in
  let _, second =
    run_session ~config [ grade_line ~id:"g2" mutant; {|{"op":"shutdown"}|} ]
  in
  check "replayed entry answers cached:true" true
    (cached_of (List.hd second));
  check_str "replayed payload is byte-identical" expected
    (payload_of (List.hd second))

(* ------------------------------------------------------------------ *)
(* The concurrent socket daemon: interleaved clients *)

(* Connect to a daemon started in another domain.  Its socket file
   appears at bind(2), a moment before listen(2), and a connect in that
   window is refused, so retry until the daemon accepts. *)
let connect_daemon path =
  let rec go n =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        Unix.close fd;
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 250

let test_socket_two_clients () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-test-%d.sock" (Unix.getpid ()))
  in
  let server =
    Domain.spawn (fun () -> Server.serve_socket Server.default_config path)
  in
  let connect () =
    let fd = connect_daemon path in
    (fd, Unix.in_channel_of_descr fd)
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let a_fd, a_ic = connect () in
  let b_fd, b_ic = connect () in
  (* A stalls mid-line: a half-written request with no newline.  A
     slow or wedged client must not stall anyone else. *)
  send a_fd {|{"op":"grade","id":"a1","assignment|};
  (* B, meanwhile, gets full service: two grades and a stats, answered
     in B's own request order. *)
  send b_fd (grade_line ~id:"b1" base_source ^ "\n");
  send b_fd
    (grade_line ~id:"b2" (Mutate.alpha_rename ~seed:3 base_source)
    ^ "\n" ^ {|{"op":"stats","id":"bs"}|} ^ "\n");
  let b1 = input_line b_ic in
  let b2 = input_line b_ic in
  let bs = input_line b_ic in
  check "B graded while A stalls" true
    (String.starts_with ~prefix:{|{"id":"b1","op":"grade","cached":false|} b1);
  check "B's duplicate hits the shared cache" true
    (String.starts_with ~prefix:{|{"id":"b2","op":"grade","cached":true|} b2);
  check "stats answered after B's grades, in order" true
    (String.starts_with ~prefix:{|{"id":"bs","op":"stats"|} bs);
  check "stats counts both connections" true (contains ~sub:{|"conns":2|} bs);
  (* A wakes up and completes its line: the daemon kept its buffer *)
  send a_fd ({|":"assignment1","source":"|}
             ^ Jfeed_trace.Trace.json_escape base_source
             ^ {|"}|} ^ "\n");
  let a1 = input_line a_ic in
  check "A's split request was served from the shared cache" true
    (String.starts_with ~prefix:{|{"id":"a1","op":"grade","cached":true|} a1);
  (* shutdown drains both connections and stops the daemon *)
  send b_fd "{\"op\":\"shutdown\"}\n";
  check "shutdown acknowledged" true
    (String.starts_with ~prefix:{|{"op":"shutdown"|} (input_line b_ic));
  check "A sees EOF on daemon stop" true
    (match input_line a_ic with
    | exception End_of_file -> true
    | _ -> false);
  Domain.join server;
  (try Unix.close a_fd with _ -> ());
  (try Unix.close b_fd with _ -> ());
  check "socket unlinked on exit" false (Sys.file_exists path)

let test_socket_admission_sheds () =
  (* queue_cap 1: a burst on one connection must answer every line —
     some graded, the overflow refused with rejected:"overloaded" —
     and never hang. *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-shed-%d.sock" (Unix.getpid ()))
  in
  let config = { Server.default_config with queue_cap = 1 } in
  let server = Domain.spawn (fun () -> Server.serve_socket config path) in
  let fd = connect_daemon path in
  let ic = Unix.in_channel_of_descr fd in
  let n = 8 in
  let burst =
    String.concat ""
      (List.init n (fun i ->
           grade_line ~id:(Printf.sprintf "r%d" i)
             (Spec.source_of_index Bundles.assignment1.Bundles.gen (i * 7))
           ^ "\n"))
  in
  ignore (Unix.write_substring fd burst 0 (String.length burst));
  let responses = List.init n (fun _ -> input_line ic) in
  let shed =
    List.length
      (List.filter (contains ~sub:{|"rejected":"overloaded"|}) responses)
  in
  let graded =
    List.length
      (List.filter (contains ~sub:{|"cached":|}) responses)
  in
  check_int "every line answered" n (List.length responses);
  check_int "graded + shed covers the burst" n (graded + shed);
  check "shed responses carry a rejected outcome" true
    (shed = 0
    || List.exists
         (fun r ->
           contains ~sub:{|"rejected":"overloaded"|} r
           && contains ~sub:{|"stage":"admission"|} r)
         responses);
  ignore (Unix.write_substring fd "{\"op\":\"shutdown\"}\n" 0 18);
  check "shutdown acknowledged" true
    (String.starts_with ~prefix:{|{"op":"shutdown"|} (input_line ic));
  Domain.join server;
  (try Unix.close fd with _ -> ())

(* ------------------------------------------------------------------ *)
(* Telemetry: the event log, SLO counters, correlation ids *)

module Events = Jfeed_trace.Events

let fresh_ev_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-%s-%d" tag (Unix.getpid ()))
  in
  List.iter
    (fun f ->
      try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    [ "events.jsonl"; "events.jsonl.1" ];
  dir

let test_events_ring_rotation () =
  let dir = fresh_ev_dir "evring" in
  let e = Events.create ~ring_cap:4 ~rotate_bytes:4096 dir in
  for i = 1 to 6 do
    Events.emit e
      ~rid:(Printf.sprintf "r%d" i)
      ~ev:"admit"
      [ ("i", Events.I i) ]
  done;
  check_int "ring holds exactly its cap" 4 (Events.pending e);
  check_int "the overflow is counted, not blocked on" 2 (Events.dropped e);
  check_int "emitted counts only enqueued lines" 4 (Events.emitted e);
  Events.flush e;
  check_int "flush drains the ring" 0 (Events.pending e);
  (* pad lines until the size cap forces a rotation *)
  for i = 1 to 200 do
    Events.emit e ~rid:"pad" ~ev:"x"
      [ ("pad", Events.S (String.make 80 'a')) ];
    if i mod 4 = 0 then Events.flush e
  done;
  Events.close e;
  check "the log rotated at the size cap" true (Events.rotations e >= 1);
  check "one rotated generation is kept" true
    (Sys.file_exists (Events.rotated_path dir));
  let n, torn = Events.replay_dir dir ~f:(fun _ -> ()) in
  check "a cleanly closed log has no torn tail" true (torn = 0);
  check "replay walks rotated then current" true (n > 0)

let test_events_torn_tail () =
  let dir = fresh_ev_dir "evtorn" in
  let e = Events.create dir in
  Events.emit e ~rid:"t1" ~ev:"admit" [];
  Events.emit e ~rid:"t2" ~ev:"respond" [ ("total_ms", Events.F 1.25) ];
  Events.close e;
  (* an unterminated half-line, as kill -9 mid-write leaves behind *)
  let oc =
    open_out_gen [ Open_append; Open_wronly ] 0o644 (Events.current_path dir)
  in
  output_string oc {|{"ts_ns":1,"rid":"t3","ev":"admit"|};
  close_out oc;
  let seen = ref [] in
  let n, torn = Events.replay_dir dir ~f:(fun l -> seen := l :: !seen) in
  check_int "the valid prefix survives" 2 n;
  check "the torn tail is measured, never replayed" true (torn > 0);
  check "replayed lines all checksum" true
    (List.for_all Events.checksum_ok !seen);
  (* a flipped byte inside an intact line stops replay there too *)
  let dir2 = fresh_ev_dir "evcorrupt" in
  let e2 = Events.create dir2 in
  for i = 1 to 3 do
    Events.emit e2 ~rid:(string_of_int i) ~ev:"x" []
  done;
  Events.close e2;
  let p = Events.current_path dir2 in
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match String.split_on_char '\n' s with
  | l1 :: l2 :: rest ->
      let l2' = Bytes.of_string l2 in
      Bytes.set l2' 12 'X';
      let oc = open_out_bin p in
      output_string oc (String.concat "\n" (l1 :: Bytes.to_string l2' :: rest));
      close_out oc
  | _ -> Alcotest.fail "expected three event lines");
  let n2, _ = Events.replay_file p ~f:(fun _ -> ()) in
  check_int "replay stops at the first corrupted line" 1 n2

let test_metrics_slo () =
  let m = Metrics.create () in
  for _ = 1 to 9 do
    Metrics.record_slo m ~ok:true
  done;
  Metrics.record_slo m ~ok:false;
  check_int "good requests counted" 9 (Metrics.slo_good m);
  check_int "bad requests counted" 1 (Metrics.slo_bad m);
  (* 1 bad in 10 at target 0.9: spending the error budget exactly 1x *)
  let burn = Metrics.burn_rate m ~target:0.9 ~window_s:60.0 in
  check "burn rate = error rate over budget" true
    (abs_float (burn -. 1.0) < 1e-9);
  let tight = Metrics.burn_rate m ~target:0.99 ~window_s:60.0 in
  check "a 10x tighter budget burns 10x faster" true
    (abs_float (tight -. 10.0) < 1e-6);
  check "an empty window burns nothing" true
    (Metrics.burn_rate (Metrics.create ()) ~target:0.9 ~window_s:60.0 = 0.0);
  let text =
    Metrics.exposition m
      { bare_view with slo = Some (50.0, 0.999); events = Some (1, 2, 3) }
  in
  check "slo counters exported" true
    (contains ~sub:"jfeed_slo_bad_total 1" text);
  check "burn gauge labelled by window" true
    (contains ~sub:{|jfeed_slo_burn_rate{window="5m"}|} text);
  check "build info always present" true
    (contains ~sub:"jfeed_build_info{version=" text);
  check "event counters exported" true
    (contains ~sub:"jfeed_events_dropped_total 2" text)

let test_session_rid_telemetry () =
  let config = { Server.default_config with slo_ms = Some 10000.0 } in
  let outcome, responses =
    run_session ~config
      [
        grade_line ~id:"g1" base_source;
        {|{"op":"grade","id":"g2","rid":"mine","assignment":"assignment1","source":"not java"}|};
        {|{"op":"stats","id":"s"}|};
        {|{"op":"shutdown"}|};
      ]
  in
  check "shutdown reached" true (outcome = `Shutdown);
  let g1 = List.nth responses 0 in
  let g2 = List.nth responses 1 in
  let s = List.nth responses 2 in
  check "a minted rid is echoed" true
    (String.starts_with ~prefix:{|{"id":"g1","rid":"r|} g1);
  check "a client-supplied rid wins over minting" true
    (String.starts_with ~prefix:{|{"id":"g2","rid":"mine","op":"grade"|} g2);
  check "stats carries the slo object" true
    (contains ~sub:{|"slo":{"good":|} s);
  check "both requests landed inside the objective" true
    (contains ~sub:{|"slo":{"good":2,"bad":0|} s)

let rid_of line =
  match index_of ~sub:{|"rid":"|} line with
  | Some i ->
      let start = i + 7 in
      let j = String.index_from line start '"' in
      String.sub line start (j - start)
  | None -> ""

let test_socket_events_interleaved () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-evsock-%d.sock" (Unix.getpid ()))
  in
  let dir = fresh_ev_dir "evlog" in
  let config =
    {
      Server.default_config with
      event_log = Some dir;
      slo_ms = Some 10000.0;
    }
  in
  let server = Domain.spawn (fun () -> Server.serve_socket config path) in
  let connect () =
    let fd = connect_daemon path in
    (fd, Unix.in_channel_of_descr fd)
  in
  let send fd s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let a_fd, a_ic = connect () in
  let b_fd, b_ic = connect () in
  let rid_line ~id ~rid ?fuel src =
    Printf.sprintf
      {|{"op":"grade","id":"%s","rid":"%s",%s"assignment":"assignment1","source":"%s"}|}
      id rid
      (match fuel with
      | Some f -> Printf.sprintf {|"fuel":%d,|} f
      | None -> "")
      (Jfeed_trace.Trace.json_escape src)
  in
  (* two clients interleave: a clean grade each, then a degraded one
     (starved budget) and a rejected one (unparseable) — the latter two
     must come out of the log with retained traces *)
  send a_fd (rid_line ~id:"a1" ~rid:"rid-a1" base_source ^ "\n");
  send b_fd (rid_line ~id:"b1" ~rid:"rid-b1" base_source ^ "\n");
  let a1 = input_line a_ic in
  let b1 = input_line b_ic in
  send a_fd (rid_line ~id:"a2" ~rid:"rid-a2" ~fuel:1 base_source ^ "\n");
  send b_fd (rid_line ~id:"b2" ~rid:"rid-b2" "not java at all" ^ "\n");
  let a2 = input_line a_ic in
  let b2 = input_line b_ic in
  send a_fd (grade_line ~id:"a3" (Mutate.alpha_rename ~seed:9 base_source) ^ "\n");
  let a3 = input_line a_ic in
  check "client rid echoed through the socket" true
    (String.starts_with ~prefix:{|{"id":"a1","rid":"rid-a1","op":"grade"|} a1);
  check "the other client's rid echoed too" true
    (String.starts_with ~prefix:{|{"id":"b1","rid":"rid-b1","op":"grade"|} b1);
  check "non-graded responses keep their rid" true
    (contains ~sub:{|"rid":"rid-a2"|} a2 && contains ~sub:{|"rid":"rid-b2"|} b2);
  check "a request without a rid gets a minted one" true
    (String.starts_with ~prefix:{|{"id":"a3","rid":"r|} a3);
  send b_fd "{\"op\":\"shutdown\"}\n";
  ignore (input_line b_ic);
  Domain.join server;
  (try Unix.close a_fd with _ -> ());
  (try Unix.close b_fd with _ -> ());
  let acc = ref [] in
  let n, torn = Events.replay_dir dir ~f:(fun l -> acc := l :: !acc) in
  let lines = List.rev !acc in
  check "clean shutdown leaves no torn tail" true (torn = 0);
  check_int "replay returns every line it passed to f" n (List.length lines);
  let with_rid rid =
    List.filter
      (contains ~sub:(Printf.sprintf {|"rid":"%s"|} rid))
      lines
  in
  let evs rid ev =
    List.filter
      (contains ~sub:(Printf.sprintf {|"ev":"%s"|} ev))
      (with_rid rid)
  in
  (* one well-formed line per lifecycle transition, per request *)
  List.iter
    (fun rid ->
      check_int (rid ^ " admitted exactly once") 1
        (List.length (evs rid "admit"));
      check_int (rid ^ " responded exactly once") 1
        (List.length (evs rid "respond"));
      check_int (rid ^ " written out exactly once") 1
        (List.length (evs rid "write")))
    [ "rid-a1"; "rid-b1"; "rid-a2"; "rid-b2" ];
  check "the degraded request retained its trace" true
    (List.length (evs "rid-a2" "trace") = 1);
  check "the rejected request retained its trace" true
    (List.length (evs "rid-b2" "trace") = 1);
  check "a fast graded request is not trace-sampled" true
    (List.length (evs "rid-a1" "trace") = 0);
  let admits = List.filter (contains ~sub:{|"ev":"admit"|}) lines in
  check_int "one admission per grade request" 5 (List.length admits);
  check_int "rids are unique across clients" 5
    (List.length (List.sort_uniq compare (List.map rid_of admits)))

(* ------------------------------------------------------------------ *)
(* The socket daemon's grading domains *)

let start_daemon ?(config = Server.default_config) tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "jfeed-%s-%d.sock" tag (Unix.getpid ()))
  in
  (path, Domain.spawn (fun () -> Server.serve_socket config path))

let open_conn path =
  let fd = connect_daemon path in
  (fd, Unix.in_channel_of_descr fd)

let send_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let send_lines fd lines = send_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines))

let id_of line =
  match index_of ~sub:{|{"id":"|} line with
  | Some 0 -> String.sub line 7 (String.index_from line 7 '"' - 7)
  | _ -> ""

let shut_down (fd, ic) server =
  send_lines fd [ {|{"op":"shutdown"}|} ];
  let ack = input_line ic in
  Domain.join server;
  (try Unix.close fd with _ -> ());
  ack

let test_session_parallel_determinism () =
  (* The same mixed stream through --jobs 1 and --jobs 4 must produce
     byte-identical response lines, since the budget is per request;
     and stdio is the serving loop's one connection, so one socket
     connection must get the same lines. *)
  let srcs =
    List.init 8 (fun i ->
        Spec.source_of_index Bundles.assignment1.Bundles.gen (i * 11))
  in
  let lines =
    List.mapi (fun i s -> grade_line ~id:(string_of_int i) s) srcs
    @ [ {|{"op":"shutdown"}|} ]
  in
  let run jobs =
    snd (run_session ~config:{ Server.default_config with jobs } lines)
  in
  let stdio = run 1 in
  check "jobs-invariant responses" true (stdio = run 4);
  let path, server = start_daemon "oneconn" in
  let fd, ic = open_conn path in
  send_lines fd lines;
  let socket = List.map (fun _ -> input_line ic) lines in
  Domain.join server;
  Unix.close fd;
  Alcotest.(check (list string)) "one socket connection answers alike" stdio socket

let test_socket_twins_share_a_grading () =
  let path, server = start_daemon ~config:{ Server.default_config with jobs = 2 } "twins" in
  let (a_fd, a_ic) = open_conn path in
  let (b_fd, b_ic) = open_conn path in
  send_lines a_fd [ grade_line ~id:"a" base_source ];
  send_lines b_fd [ grade_line ~id:"b" (Mutate.alpha_rename ~seed:5 base_source) ];
  let a = input_line a_ic and b = input_line b_ic in
  check "one of the twins is graded, the other served from it" true
    (List.sort compare [ cached_of a; cached_of b ] = [ false; true ]);
  check_str "byte-identical payloads" (payload_of a) (payload_of b);
  send_lines a_fd [ {|{"op":"stats"}|} ];
  check "stats counts one miss" true
    (contains ~sub:{|"hits":1,"misses":1|} (input_line a_ic));
  Unix.close b_fd;
  ignore (shut_down (a_fd, a_ic) server)

(* A submission that runs into the interpreter's step limit: the loop
   body branches, so it is not accelerated. *)
let looping_source =
  "void lab3p1(int k) { int n = 0; while (n <= k) { if (n >= 0) n = n * 1; } \
   System.out.println(n); }"

let test_socket_answers_keep_request_order () =
  let path, server = start_daemon ~config:{ Server.default_config with jobs = 2 } "order" in
  let (fd, ic) = open_conn path in
  send_lines fd [ grade_line ~id:"warm" base_source ];
  check "the warm-up is a miss" false (cached_of (input_line ic));
  send_lines fd
    [
      Printf.sprintf
        {|{"op":"grade","id":"loop","assignment":"esc-LAB-3-P1-V1","source":"%s"}|}
        (Jfeed_trace.Trace.json_escape looping_source);
      grade_line ~id:"hit" (Mutate.whitespace ~seed:2 base_source);
      {|{"op":"stats","id":"s"}|};
    ];
  let answers = List.init 3 (fun _ -> input_line ic) in
  Alcotest.(check (list string)) "answers in request order" [ "loop"; "hit"; "s" ]
    (List.map id_of answers);
  check "the step-limit miss was graded" false (cached_of (List.nth answers 0));
  check "the twin was a hit" true (cached_of (List.nth answers 1));
  ignore (shut_down (fd, ic) server)

let test_socket_shutdown_answers_inflight () =
  let path, server = start_daemon ~config:{ Server.default_config with jobs = 2 } "drain" in
  let (fd, ic) = open_conn path in
  let ids = List.init 4 (fun i -> Printf.sprintf "m%d" i) in
  send_lines fd
    (List.mapi
       (fun i id ->
         grade_line ~id (Spec.source_of_index Bundles.assignment1.Bundles.gen (3 + (i * 13))))
       ids
    @ [ {|{"op":"shutdown","id":"bye"}|} ]);
  let answers = List.init 5 (fun _ -> input_line ic) in
  Alcotest.(check (list string)) "every miss answered before the shutdown"
    (ids @ [ "bye" ]) (List.map id_of answers);
  check "the misses were graded" true
    (List.for_all (fun l -> not (cached_of l)) (List.filteri (fun i _ -> i < 4) answers));
  check "then the daemon closes the connection" true
    (match input_line ic with exception End_of_file -> true | _ -> false);
  Domain.join server;
  Unix.close fd;
  check "socket unlinked on exit" false (Sys.file_exists path)

let test_socket_jobs_invariant () =
  let src i = Spec.source_of_index Bundles.assignment1.Bundles.gen (i * 17) in
  let fresh = Array.init 6 src in
  check_int "distinct submissions have distinct keys" 6
    (List.length (List.sort_uniq compare (Array.to_list (Array.map key fresh))));
  (* Connection k grades two fresh submissions, an α-twin of its first,
     an unparseable source of its own and an unknown assignment; then,
     once everything is answered, twins of the other connections'
     submissions, which are cache hits at any width. *)
  let first k =
    [
      grade_line ~id:(Printf.sprintf "c%d-a" k) fresh.(2 * k);
      grade_line ~id:(Printf.sprintf "c%d-twin" k) (Mutate.alpha_rename ~seed:k fresh.(2 * k));
      grade_line ~id:(Printf.sprintf "c%d-b" k) fresh.((2 * k) + 1);
      grade_line ~id:(Printf.sprintf "c%d-bad" k) (Printf.sprintf "class Broken%d {" k);
      Printf.sprintf {|{"op":"grade","id":"c%d-nope","assignment":"nope","source":"x"}|} k;
    ]
  in
  let second k =
    [
      grade_line ~id:(Printf.sprintf "c%d-x" k)
        (Mutate.rename_and_reflow ~seed:k fresh.(2 * ((k + 1) mod 3)));
      grade_line ~id:(Printf.sprintf "c%d-y" k)
        (Mutate.whitespace ~seed:k fresh.((2 * ((k + 2) mod 3)) + 1));
    ]
  in
  let run jobs =
    let path, server =
      start_daemon ~config:{ Server.default_config with jobs } (Printf.sprintf "inv%d" jobs)
    in
    let conns = Array.init 3 (fun _ -> open_conn path) in
    let phase lines =
      Array.iteri (fun k (fd, _) -> send_lines fd (lines k)) conns;
      Array.mapi (fun k (_, ic) -> List.map (fun _ -> input_line ic) (lines k)) conns
    in
    let one = phase first in
    let two = phase second in
    Array.iteri (fun k (fd, _) -> if k > 0 then Unix.close fd) conns;
    ignore (shut_down conns.(0) server);
    Array.map2 ( @ ) one two
  in
  let base = run 1 in
  check "every fresh submission was a miss at --jobs 1" true
    (Array.for_all
       (fun answers -> not (cached_of (List.hd answers)))
       base);
  List.iter
    (fun jobs ->
      Array.iteri
        (fun k answers ->
          Alcotest.(check (list string))
            (Printf.sprintf "connection %d at --jobs %d" k jobs)
            base.(k) answers)
        (run jobs))
    [ 2; 4 ]

let test_socket_stats_is_a_barrier () =
  let path, server = start_daemon "barrier" in
  let (fd, ic) = open_conn path in
  send_lines fd [ grade_line ~id:"g" base_source; {|{"op":"stats","id":"s"}|} ];
  check "the miss is answered first" false (cached_of (input_line ic));
  check "stats, sent with it, counts it" true
    (contains ~sub:{|"hits":0,"misses":1|} (input_line ic));
  ignore (shut_down (fd, ic) server)

let test_socket_overlong_line () =
  let path, server = start_daemon "overlong" in
  let (fd, ic) = open_conn path in
  send_all fd (String.make (Server.max_line + 1) 'a' ^ "\n");
  send_lines fd [ grade_line ~id:"after" base_source ];
  check_str "one error names the bound"
    (Printf.sprintf {|{"op":"error","error":"request line longer than %d bytes"}|}
       Server.max_line)
    (input_line ic);
  check "the next line is served" true
    (String.starts_with ~prefix:{|{"id":"after","op":"grade","cached":false|}
       (input_line ic));
  ignore (shut_down (fd, ic) server)

let suite =
  [
    Alcotest.test_case "json values parse" `Quick test_json_values;
    Alcotest.test_case "json rejects" `Quick test_json_rejects;
    Alcotest.test_case "request parsing" `Quick test_request_parsing;
    Alcotest.test_case "request errors keep the id" `Quick test_request_errors;
    Alcotest.test_case "response shapes" `Quick test_response_shapes;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache replace and cap 0" `Quick
      test_cache_replace_and_disable;
    Alcotest.test_case "cache churn" `Quick test_cache_churn;
    Alcotest.test_case "metrics percentiles" `Quick test_metrics_percentiles;
    Alcotest.test_case "fingerprint collapses naming" `Quick
      test_fingerprint_collapses_names;
    Alcotest.test_case "cache key scoping" `Quick test_key_scoping;
    Alcotest.test_case "raw fallback for unparseable" `Quick
      test_fingerprint_raw_fallback;
    QCheck_alcotest.to_alcotest prop_mutants_share_key;
    Alcotest.test_case "60 mutants byte-identical via cache" `Slow
      test_session_cached_mutants;
    Alcotest.test_case "malformed lines never kill the daemon" `Quick
      test_session_survives_malformed;
    Alcotest.test_case "EOF without shutdown" `Quick
      test_session_eof_without_shutdown;
    Alcotest.test_case "responses are jobs-invariant" `Slow
      test_session_parallel_determinism;
    Alcotest.test_case "cache entry codec roundtrips" `Quick test_entry_codec;
    Alcotest.test_case "store roundtrip through a restart" `Quick
      test_store_roundtrip;
    Alcotest.test_case "store truncates a torn tail" `Quick
      test_store_torn_tail;
    Alcotest.test_case "store stops replay at corruption" `Quick
      test_store_corruption_stops_replay;
    Alcotest.test_case "store compaction keeps the live set" `Quick
      test_store_compaction;
    Alcotest.test_case "store reopen after close" `Quick
      test_store_single_writer;
    QCheck_alcotest.to_alcotest prop_shards_invariant;
    Alcotest.test_case "shard capacity split" `Quick test_shards_capacity_split;
    Alcotest.test_case "durable replay across restarts" `Slow
      test_durable_replay_across_restarts;
    Alcotest.test_case "two clients interleave on one daemon" `Slow
      test_socket_two_clients;
    Alcotest.test_case "admission sheds past the queue cap" `Slow
      test_socket_admission_sheds;
    Alcotest.test_case "event ring bounds memory and rotates" `Quick
      test_events_ring_rotation;
    Alcotest.test_case "event replay truncates torn tails only" `Quick
      test_events_torn_tail;
    Alcotest.test_case "slo counters and burn rates" `Quick test_metrics_slo;
    Alcotest.test_case "correlation ids thread through a session" `Quick
      test_session_rid_telemetry;
    Alcotest.test_case "two clients leave one event trail each" `Slow
      test_socket_events_interleaved;
    Alcotest.test_case "metrics table: one row per family and path" `Quick
      test_metrics_table;
    Alcotest.test_case "alpha-twins on two connections share a grading" `Slow
      test_socket_twins_share_a_grading;
    Alcotest.test_case "one connection's answers keep request order" `Slow
      test_socket_answers_keep_request_order;
    Alcotest.test_case "shutdown answers the misses in flight" `Slow
      test_socket_shutdown_answers_inflight;
    Alcotest.test_case "socket answers are jobs-invariant" `Slow
      test_socket_jobs_invariant;
    Alcotest.test_case "stats waits for its connection's earlier grades" `Slow
      test_socket_stats_is_a_barrier;
    Alcotest.test_case "an overlong line costs one error line" `Slow
      test_socket_overlong_line;
  ]
