(* The builder behind [Galois.Run] — the runtime's primary entry point.

   A Galois program is an operator plus an initial task pool; everything
   about *how* it executes — serially, speculatively in parallel, or
   deterministically, with or without schedule recording and event
   tracing — is configured here at run time. This is the paper's
   on-demand determinism: the application source never changes. *)

type ('item, 'state) operator = ('item, 'state) Context.t -> 'item -> unit

type report = {
  stats : Stats.t;
  schedule : Schedule.t option;
  trace : Obs.stamped list option;
  audit : Audit.report option;
}

(* Application world-state capture for cross-process resume. The state
   type is existential: the builder never looks inside, it only shuttles
   [save ()]'s result through [Marshal] (via Obj.repr) and back into
   [restore]. Per-description, so the Obj round-trip is well-typed by
   construction as long as save/restore come from the same closure
   pair — which the GADT enforces. *)
type state_hook = Hook : { save : unit -> 'st; restore : 'st -> unit } -> state_hook

type 'item resume_src =
  | From_boundary of 'item Det_sched.boundary
  | From_file of string
  | From_bytes of string

type ('item, 'state) t = {
  operator : ('item, 'state) operator;
  items : 'item array;
  policy_ : Policy.t;
  pool_ : Pool.t option;
  record_ : bool;
  static_id_ : ('item -> int) option;
  priority_ : ('item -> int) option;
  sink_ : Obs.sink;
  capture_ : bool;
  app_ : string;
  hook_ : state_hook option;
  checkpoint_every_ : int option;
  checkpoint_path_ : string option;
  on_checkpoint_ : ('item Snapshot.t -> unit) option;
  resume_ : 'item resume_src option;
  stop_after_ : int option;
  audit_ : bool;
}

let make ~operator items =
  {
    operator;
    items;
    policy_ = Policy.Serial;
    pool_ = None;
    record_ = false;
    static_id_ = None;
    priority_ = None;
    sink_ = Obs.null;
    capture_ = false;
    app_ = "";
    hook_ = None;
    checkpoint_every_ = None;
    checkpoint_path_ = None;
    on_checkpoint_ = None;
    resume_ = None;
    stop_after_ = None;
    audit_ = false;
  }

let policy p t = { t with policy_ = p }
let pool p t = { t with pool_ = Some p }
let record t = { t with record_ = true }
let static_id f t = { t with static_id_ = Some f }
let priority f t = { t with priority_ = Some f }

let sink s t = { t with sink_ = Obs.Sink.tee t.sink_ s }

let trace t = { t with capture_ = true }

let opt f o t = match o with Some v -> f v t | None -> t

let app name t = { t with app_ = name }
let snapshot_state ~save ~restore t = { t with hook_ = Some (Hook { save; restore }) }
let checkpoint_every k t = { t with checkpoint_every_ = Some k }
let checkpoint_to path t = { t with checkpoint_path_ = Some path }
let on_checkpoint f t = { t with on_checkpoint_ = Some f }
let resume b t = { t with resume_ = Some (From_boundary b) }
let resume_from path t = { t with resume_ = Some (From_file path) }
let resume_from_bytes bytes t = { t with resume_ = Some (From_bytes bytes) }
let stop_after r t = { t with stop_after_ = Some r }
let audit t = { t with audit_ = true }

let det_options_string t =
  match t.policy_ with
  | Policy.Det { options; _ } -> Policy.Det_options.to_string options
  | Policy.Serial | Policy.Nondet _ ->
      invalid_arg "Galois.Run: checkpoint/resume requires a det policy"

let snapshot_of_boundary t boundary =
  {
    Snapshot.app = t.app_;
    options = det_options_string t;
    static_id = Option.is_some t.static_id_;
    boundary;
    state = Option.map (fun (Hook h) -> Obj.repr (h.save ())) t.hook_;
  }

(* Validate a decoded snapshot against the run description it is being
   resumed into, restore the application state it carries, and hand the
   boundary to the scheduler. *)
let accept_snapshot t (snap : _ Snapshot.t) =
  if snap.app <> "" && t.app_ <> "" && not (String.equal snap.app t.app_) then
    invalid_arg
      (Printf.sprintf "Galois.Run.resume: snapshot is for app %S, description is %S"
         snap.app t.app_);
  let options = det_options_string t in
  if not (String.equal snap.options options) then
    invalid_arg
      (Printf.sprintf
         "Galois.Run.resume: snapshot options %S disagree with policy options %S \
          (the schedule would diverge)"
         snap.options options);
  if snap.static_id <> Option.is_some t.static_id_ then
    invalid_arg "Galois.Run.resume: snapshot and description disagree on static ids";
  (match (snap.state, t.hook_) with
  | Some st, Some (Hook h) -> h.restore (Obj.obj st)
  | Some _, None ->
      invalid_arg
        "Galois.Run.resume: snapshot carries application state but the description \
         has no snapshot_state hook"
  | None, _ -> ());
  snap.boundary

let fail_snapshot what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Snapshot.error_to_string e))

let resume_boundary t =
  match t.resume_ with
  | None -> None
  | Some (From_boundary b) -> Some b
  | Some (From_file path) ->
      Some (accept_snapshot t (fail_snapshot path (Snapshot.load ~path)))
  | Some (From_bytes bytes) ->
      Some (accept_snapshot t (fail_snapshot "snapshot" (Snapshot.decode bytes)))

let checkpoint_hook t =
  match (t.checkpoint_every_, t.checkpoint_path_, t.on_checkpoint_) with
  | None, None, None -> None
  | every, path, callback ->
      if Option.is_none path && Option.is_none callback then
        invalid_arg
          "Galois.Run.checkpoint_every: no destination (add checkpoint_to or \
           on_checkpoint)";
      let every = Option.value every ~default:1 in
      Some
        ( every,
          fun boundary ->
            let snap = snapshot_of_boundary t boundary in
            (match path with
            | Some p -> fail_snapshot p (Snapshot.save ~path:p snap)
            | None -> ());
            match callback with Some f -> f snap | None -> () )

let with_pool ?pool threads f =
  match pool with
  | Some p ->
      (* [domain_pool] is the use-after-shutdown gate. *)
      let dp = Pool.domain_pool p in
      if Parallel.Domain_pool.size dp < threads then
        invalid_arg "Galois.Run: pool smaller than policy thread count";
      f dp
  | None -> Parallel.Domain_pool.with_pool threads f

let exec t =
  let memory = if t.capture_ then Some (Obs.Memory.create ()) else None in
  let sink =
    match memory with
    | Some m -> Obs.Sink.tee t.sink_ (Obs.Memory.sink m)
    | None -> t.sink_
  in
  let tracing = not (Obs.Sink.is_null sink) in
  let emit event = if tracing then sink.Obs.emit (Clock.stamp event) in
  emit
    (Obs.Run_begin
       {
         policy = Policy.to_string t.policy_;
         threads = Policy.threads t.policy_;
         tasks = Array.length t.items;
       });
  let replay_features =
    Option.is_some t.checkpoint_every_
    || Option.is_some t.checkpoint_path_
    || Option.is_some t.on_checkpoint_
    || Option.is_some t.resume_
    || Option.is_some t.stop_after_
  in
  let audit_state = if t.audit_ then Some (Audit.create ()) else None in
  let stats, schedule =
    match t.policy_ with
    | (Policy.Serial | Policy.Nondet _) when replay_features ->
        invalid_arg "Galois.Run: checkpoint/resume requires a det policy"
    | (Policy.Serial | Policy.Nondet _) when t.audit_ ->
        invalid_arg "Galois.Run: audit requires a det policy"
    | Policy.Serial -> Serial_sched.run ~record:t.record_ ~sink ~operator:t.operator t.items
    | Policy.Nondet { threads } ->
        with_pool ?pool:t.pool_ threads (fun pool ->
            Nondet_sched.run ~record:t.record_ ~sink ~threads ~pool ~operator:t.operator
              t.items)
    | Policy.Det { threads; options } ->
        let checkpoint = checkpoint_hook t in
        let resume = resume_boundary t in
        with_pool ?pool:t.pool_ threads (fun pool ->
            Det_sched.run ~record:t.record_ ~sink ?audit:audit_state ?checkpoint ?resume
              ?stop_after:t.stop_after_ ~threads ?priority:t.priority_ ~pool ~options
              ~static_id:t.static_id_ ~operator:t.operator t.items)
  in
  emit
    (Obs.Run_end
       {
         commits = stats.Stats.commits;
         rounds = stats.Stats.rounds;
         generations = stats.Stats.generations;
       });
  (* User sinks are never closed here: they may span several runs. The
     capture buffer is ours and needs no closing. A ring that dropped
     events holds only the tail of the stream; returning it would pass a
     truncated trace off as the whole run. *)
  let capture m =
    match Obs.Memory.dropped m with
    | 0 -> Obs.Memory.contents m
    | d -> failwith (Printf.sprintf "Galois.Run.trace: capture ring dropped %d events" d)
  in
  {
    stats;
    schedule;
    trace = Option.map capture memory;
    audit = Option.map Audit.report audit_state;
  }

let solve ?(record = false) ?(audit = false) ?sink:extra ?pool:shared ~policy:p (t, result) =
  let report =
    { t with policy_ = p; record_ = t.record_ || record; audit_ = t.audit_ || audit }
    |> opt pool shared
    |> opt sink extra
    |> exec
  in
  (result (), report)
