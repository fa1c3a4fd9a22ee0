(* Spans the benchmark records around its own calls into the runtime:
   name, start, end (Obs clock), parent span and request id. They stay
   in memory and are written as JSONL when the run ends, followed by the
   self time of each span name: its spans' durations minus the parts
   their child spans cover. *)

type t = { id : int; name : string; start : float; stop : float; parent : int; request : int }

let recorded = ref []
let last_id = ref 0

let fresh () =
  incr last_id;
  !last_id

let record ?id ?(parent = 0) ?(request = -1) name ~start ~stop =
  let id = match id with Some i -> i | None -> fresh () in
  recorded := { id; name; start; stop; parent; request } :: !recorded;
  id

let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.replace children s.parent
        (s.stop -. s.start +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (prev +. s.stop -. s.start -. covered))
    spans;
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) self [])

let write path =
  let spans = List.rev !recorded in
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc "%s\n"
            (Json.to_string
               (Json.Obj
                  [
                    ("id", Json.Num (float_of_int s.id));
                    ("name", Json.Str s.name);
                    ("start", Json.Num s.start);
                    ("end", Json.Num s.stop);
                    ("parent", Json.Num (float_of_int s.parent));
                    ("request", Json.Num (float_of_int s.request));
                  ])))
        spans;
      List.iter
        (fun (name, s) ->
          Printf.fprintf oc "%s\n"
            (Json.to_string (Json.Obj [ ("self_time", Json.Str name); ("s", Json.Num s) ])))
        (self_times spans))
