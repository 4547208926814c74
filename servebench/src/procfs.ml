(** Readers for the Linux [/proc] files the benchmark samples.

    Parsers take the file's text so they can be tested on fixed
    strings; the [read_*] wrappers do the I/O.  CPU times in [/proc]
    are in USER_HZ ticks, which the kernel ABI fixes at 100 per second
    whatever the kernel's internal tick rate. *)

let user_hz = 100.0

(* Whole file; [/proc] files report length 0, so read in chunks. *)
let read_text path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(** [(utime, stime)] ticks from the text of [/proc/<pid>/stat].  The
    command name is parenthesised and may hold spaces or parentheses,
    so fields are counted from the last [')']: utime and stime are
    fields 14 and 15 of the line. *)
let parse_pid_stat text =
  match String.rindex_opt text ')' with
  | None -> Error "no command field"
  | Some i -> (
      let rest = words (String.sub text (i + 1) (String.length text - i - 1)) in
      match List.filteri (fun k _ -> k = 11 || k = 12) rest with
      | [ u; s ] -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Ok (u, s)
          | _ -> Error "utime/stime not integers")
      | _ -> Error "too few fields")

(** A [kB] field (e.g. ["VmHWM"]) of [/proc/<pid>/status], in kB. *)
let parse_status_kb field text =
  let prefix = field ^ ":" in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           match words (String.sub line (String.length prefix)
                          (String.length line - String.length prefix)) with
           | n :: _ -> int_of_string_opt n
           | [] -> None
         else None)
  |> Option.to_result ~none:(field ^ " not found")

(** Steal ticks summed over all CPUs: the 8th value of the aggregate
    ["cpu"] line of [/proc/stat]. *)
let parse_steal text =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match words line with
         | "cpu" :: vals -> (
             match List.nth_opt vals 7 with
             | Some v -> int_of_string_opt v
             | None -> None)
         | _ -> None)
  |> Option.to_result ~none:"no aggregate cpu line with a steal field"

let get = function Ok v -> v | Error e -> failwith ("/proc: " ^ e)

(** Daemon CPU (user+sys, all threads, exited ones included) in ms. *)
let cpu_ms pid =
  let u, s = get (parse_pid_stat (read_text (Printf.sprintf "/proc/%d/stat" pid))) in
  float_of_int (u + s) *. 1000.0 /. user_hz

let status_kb pid field =
  get (parse_status_kb field (read_text (Printf.sprintf "/proc/%d/status" pid)))

let steal_ticks () = get (parse_steal (read_text "/proc/stat"))

(** [(nproc, cpu model)] from [/proc/cpuinfo]. *)
let cpu_info () =
  let lines = String.split_on_char '\n' (read_text "/proc/cpuinfo") in
  let value line =
    match String.index_opt line ':' with
    | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
    | None -> ""
  in
  let nproc =
    List.length (List.filter (String.starts_with ~prefix:"processor") lines)
  in
  let model =
    match List.find_opt (String.starts_with ~prefix:"model name") lines with
    | Some l -> value l
    | None -> "unknown"
  in
  (nproc, model)
