(* Versioned, checksummed round-boundary snapshots.

   A snapshot is a [Det_sched.boundary] plus the run configuration it
   is only valid for (application tag, rendered policy options, the
   static-id flag) and an optional marshalled application state blob
   (world arrays a cross-process resume must restore — captured by the
   [Run.snapshot_state] hook).

   Wire format, all integers little-endian:

     "GSNAP"  5-byte magic
     u16      format version (currently 4; v2 added the b_delta field,
              v3 the b_buckets field, v4 the atomics counter)
     u64      FNV-1a checksum of everything after this field
     body:
       str      app tag            (u64 length + bytes)
       str      options            (Det_options.to_string rendering)
       u8       static_id
       i64 x7   rounds generations buckets next_id gen_base window delta
       u64      digest prefix
       i64 x7   worker counters: the Obs.det_counters, in table order
                (committed aborted acquires atomics work pushes
                inspections)
       i64      n_pending, then n_pending pending ids (deque order)
       i64      n_todo, then n_todo (parent, birth) i64 pairs
       u64      Marshal blob length, then the blob:
                  (pending items, todo items, state) marshalled together
                  so sharing between the three survives the round-trip

   Scheduler state is fully structural (ints + digest); only the opaque
   item/state payload goes through [Marshal] (flags [], so no closures
   — items must be plain data, which every shipped app's are). The
   checksum is the same FNV-1a fold as the trace digests: cheap,
   dependency-free, and already pinned machine-independent. It guards
   against truncation and bit rot, not adversaries.

   Thread count is deliberately NOT recorded: resuming under a
   different thread count and reproducing the digest is the determinism
   claim itself. *)

type 'item t = {
  app : string;
  options : string;
  static_id : bool;
  boundary : 'item Det_sched.boundary;
  state : Obj.t option;
}

type error =
  | Truncated
  | Bad_magic
  | Bad_version of int
  | Bad_checksum
  | Corrupt of string
  | Io of string

let error_to_string = function
  | Truncated -> "snapshot truncated"
  | Bad_magic -> "not a snapshot (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported snapshot version %d" v
  | Bad_checksum -> "snapshot checksum mismatch (corrupt or bit-rotted)"
  | Corrupt what -> Printf.sprintf "corrupt snapshot: %s" what
  | Io what -> Printf.sprintf "snapshot i/o error: %s" what

let magic = "GSNAP"
let version = 4

(* --- encoding ---------------------------------------------------------- *)

let add_int buf x = Buffer.add_int64_le buf (Int64.of_int x)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let encode t =
  let b = t.boundary in
  let body = Buffer.create 1024 in
  add_str body t.app;
  add_str body t.options;
  Buffer.add_uint8 body (if t.static_id then 1 else 0);
  add_int body b.Det_sched.b_rounds;
  add_int body b.b_generations;
  add_int body b.b_buckets;
  add_int body b.b_next_id;
  add_int body b.b_gen_base;
  add_int body b.b_window;
  add_int body b.b_delta;
  Buffer.add_int64_le body b.b_digest;
  List.iter (fun f -> add_int body (f.Obs.get b.b_counters)) Obs.det_counters;
  add_int body (Array.length b.b_pending_ids);
  Array.iter (add_int body) b.b_pending_ids;
  add_int body (Array.length b.b_todo_items);
  Array.iteri
    (fun i parent ->
      add_int body parent;
      add_int body b.b_todo_births.(i))
    b.b_todo_parents;
  let blob = Marshal.to_string (b.b_pending_items, b.b_todo_items, t.state) [] in
  add_str body blob;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 15) in
  Buffer.add_string out magic;
  Buffer.add_uint16_le out version;
  Buffer.add_int64_le out (Trace_digest.fold_string Trace_digest.seed body);
  Buffer.add_string out body;
  Buffer.contents out

(* --- decoding ---------------------------------------------------------- *)

exception Short
exception Bad of string

let decode s =
  let pos = ref 0 in
  let need n = if !pos + n > String.length s then raise Short in
  let u8 () =
    need 1;
    let x = Char.code s.[!pos] in
    incr pos;
    x
  in
  let i64 () =
    need 8;
    let x = String.get_int64_le s !pos in
    pos := !pos + 8;
    x
  in
  let int () =
    let x = i64 () in
    let v = Int64.to_int x in
    if Int64.of_int v <> x then raise (Bad "integer out of range");
    v
  in
  let len ~what =
    let n = int () in
    if n < 0 || n > String.length s - !pos then raise (Bad (what ^ " length"));
    n
  in
  let str ~what =
    let n = len ~what in
    let x = String.sub s !pos n in
    pos := !pos + n;
    x
  in
  try
    need (String.length magic + 2 + 8);
    if not (String.equal (String.sub s 0 (String.length magic)) magic) then
      Error Bad_magic
    else begin
      pos := String.length magic;
      let v = Char.code s.[!pos] lor (Char.code s.[!pos + 1] lsl 8) in
      pos := !pos + 2;
      if v <> version then Error (Bad_version v)
      else begin
        let checksum = i64 () in
        let body_start = !pos in
        let body = String.sub s body_start (String.length s - body_start) in
        if
          not
            (Trace_digest.equal checksum
               (Trace_digest.fold_string Trace_digest.seed body))
        then Error Bad_checksum
        else begin
          let app = str ~what:"app tag" in
          let options = str ~what:"options" in
          let static_id =
            match u8 () with
            | 0 -> false
            | 1 -> true
            | _ -> raise (Bad "static_id flag")
          in
          let b_rounds = int () in
          let b_generations = int () in
          let b_buckets = int () in
          let b_next_id = int () in
          let b_gen_base = int () in
          let b_window = int () in
          let b_delta = int () in
          let b_digest = i64 () in
          let b_counters = Obs.counters 0 in
          List.iter (fun f -> f.Obs.set b_counters (int ())) Obs.det_counters;
          let n_pending = len ~what:"pending" in
          let b_pending_ids = Array.init n_pending (fun _ -> int ()) in
          let n_todo = len ~what:"todo" in
          let b_todo_parents = Array.make n_todo 0 in
          let b_todo_births = Array.make n_todo 0 in
          for i = 0 to n_todo - 1 do
            b_todo_parents.(i) <- int ();
            b_todo_births.(i) <- int ()
          done;
          let blob = str ~what:"payload" in
          if !pos <> String.length s then raise (Bad "trailing bytes");
          let b_pending_items, b_todo_items, state =
            try (Marshal.from_string blob 0 : _ * _ * Obj.t option)
            with Failure what -> raise (Bad ("payload unmarshal: " ^ what))
          in
          if Array.length b_pending_items <> n_pending then
            raise (Bad "pending item count");
          if Array.length b_todo_items <> n_todo then raise (Bad "todo item count");
          Ok
            {
              app;
              options;
              static_id;
              state;
              boundary =
                {
                  Det_sched.b_rounds;
                  b_generations;
                  b_buckets;
                  b_next_id;
                  b_gen_base;
                  b_window;
                  b_delta;
                  b_digest;
                  b_pending_ids;
                  b_pending_items;
                  b_todo_parents;
                  b_todo_births;
                  b_todo_items;
                  b_counters;
                };
            }
        end
      end
    end
  with
  | Short -> Error Truncated
  | Bad what -> Error (Corrupt what)

(* --- files ------------------------------------------------------------- *)

let save ~path t =
  let bytes = encode t in
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc bytes);
    Sys.rename tmp path;
    Ok ()
  with Sys_error what -> Error (Io what)

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | bytes -> decode bytes
  | exception Sys_error what -> Error (Io what)
  | exception End_of_file -> Error Truncated
