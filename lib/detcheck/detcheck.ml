(* Determinism audit.

   The paper's headline claim — DIG scheduling makes output a function of
   the input alone, never of thread count or timing — is exactly the kind
   of claim that silently rots as the runtime grows. This module exists
   to falsify it cheaply and continuously:

   - [check_invariance] sweeps one row of the app table [Replay_cases]
     over a configuration lattice (thread counts × initial windows ×
     locality spread × continuation × static ids) and compares
     round-trace digests ([Stats.t.digest]), output digests and the
     deterministic event stream across the sweep;

   - [Gen] generates random conflict topologies and random synthetic
     operators (randomized acquire sets, failsafe placement, continuation
     saves, task pushes), each the plan of one [Replay_cases.gen] row, so
     the audit covers operator shapes no hand-written app exercises;

   - [seeds_distinguished] is the positive control: perturbing the row's
     seed must change the digests, proving the machinery can actually
     signal divergence and is not vacuously green.

   Two invariance strengths are distinguished, because they are
   genuinely different claims:

   - across thread counts at a fixed configuration, the *schedule itself*
     is invariant: round-trace digest, deterministic worker-counter
     totals, output digest, and the rendered
     deterministic observability event stream (lib/obs, timing events
     stripped) byte for byte — a differing stream is reported at its
     first differing line, with the round it falls in;

   - across configurations (window, spread, static ids), the schedule
     legitimately differs but the *answer* must not: only the
     row-defined canonical digest (final distances; the committed-task
     multiset; the refinement postcondition) is compared. *)

module D = Galois.Trace_digest
module Splitmix = Parallel.Splitmix

(* ------------------------------------------------------------------ *)
(* The configuration lattice                                           *)
(* ------------------------------------------------------------------ *)

type config = { label : string; options : Galois.Policy.det_options; static_id : bool }

let lattice ~static_id_capable =
  let base = Galois.Policy.default_det in
  let fixed =
    [
      { label = "default"; options = base; static_id = false };
      { label = "window=8"; options = { base with initial_window = Some 8 }; static_id = false };
      {
        label = "window=256";
        options = { base with initial_window = Some 256 };
        static_id = false;
      };
      { label = "spread=1"; options = { base with spread = 1 }; static_id = false };
      {
        label = "no-continuation";
        options = { base with continuation = false };
        static_id = false;
      };
      { label = "validate"; options = { base with validate = true }; static_id = false };
      { label = "ratio=0.5"; options = { base with target_ratio = 0.5 }; static_id = false };
      {
        label = "prio=delta:8";
        options = { base with priority = Galois.Policy.Prio_delta 8 };
        static_id = false;
      };
      {
        label = "prio=auto";
        options = { base with priority = Galois.Policy.Prio_auto };
        static_id = false;
      };
      {
        label = "prio=auto+window=8";
        options =
          { base with priority = Galois.Policy.Prio_auto; initial_window = Some 8 };
        static_id = false;
      };
    ]
  in
  if static_id_capable then
    fixed
    @ [
        { label = "static-id"; options = base; static_id = true };
        {
          label = "static-id+window=8";
          options = { base with initial_window = Some 8 };
          static_id = true;
        };
      ]
  else fixed

let default_threads = [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Property-based row generation                                       *)
(* ------------------------------------------------------------------ *)

module Gen = struct
  type topology =
    | Ring  (* task k locks a contiguous run starting at k mod L *)
    | Clusters  (* disjoint lock blocks plus an occasional global lock *)
    | Bipartite  (* even tasks lock the low half, odd tasks the high half *)
    | Subsets  (* independent random subsets *)
    | Star  (* everyone contends on lock 0: worst-case window shrink *)

  let topology_name = function
    | Ring -> "ring"
    | Clusters -> "clusters"
    | Bipartite -> "bipartite"
    | Subsets -> "subsets"
    | Star -> "star"

  type params = {
    seed : int;
    tasks : int;
    locks : int;
    topology : topology;
    max_neigh : int;  (* acquire-set size bound (topology-dependent use) *)
    push_prob : float;  (* chance a task creates children *)
    max_children : int;
    max_depth : int;  (* push generations: 0 = static task pool *)
    pure_prob : float;  (* chance a task never reaches its failsafe *)
    save_prob : float;  (* chance a task uses the continuation save *)
    work_max : int;  (* abstract work units bound *)
    unique_children : bool;  (* injective child keys: static_id-safe *)
    key_range : int;  (* other child keys are drawn from [0, key_range) *)
    prio_salt : int;  (* perturbing it moves tasks between buckets *)
    prio_range : int;  (* priorities span [0, prio_range) *)
  }

  let random_params ~seed =
    let g = Splitmix.create ((seed * 2_654_435_761) + 97) in
    let topology =
      match Splitmix.int g 5 with
      | 0 -> Ring
      | 1 -> Clusters
      | 2 -> Bipartite
      | 3 -> Subsets
      | _ -> Star
    in
    let tasks =
      (* Star serializes into one commit per round; keep it small. *)
      match topology with Star -> 8 + Splitmix.int g 32 | _ -> 20 + Splitmix.int g 120
    in
    let p =
      {
        seed;
        tasks;
        locks = 4 + Splitmix.int g 40;
        topology;
        max_neigh = 1 + Splitmix.int g 4;
        push_prob = Splitmix.float g *. 0.6;
        max_children = 1 + Splitmix.int g 2;
        max_depth = Splitmix.int g 3;
        pure_prob = Splitmix.float g *. 0.5;
        save_prob = Splitmix.float g;
        work_max = 1 + Splitmix.int g 8;
        unique_children = Splitmix.bool g;
        key_range = tasks;
        prio_salt = 0;
        prio_range = 0;
      }
    in
    (* Priority draws are appended after every pre-existing draw so that
       row names, schedules and pinned digests from before the
       soft-priority axis stay byte-identical. *)
    let prio_salt = Splitmix.int g 1_000_000 in
    let prio_range = 1 + Splitmix.int g 64 in
    { p with prio_salt; prio_range }

  (* Per-item generator: every random choice a task makes is a function
     of (row seed, item) only, so re-executions of the task — inspect,
     retry after an abort, commit — replay identical decisions. *)
  let item_rng p (depth, key) = Splitmix.create ((((p.seed * 1_000_003) + depth) * 1_000_003) + key)

  let neighborhood p (depth, key) =
    let g = item_rng p (depth, key) in
    let l = p.locks in
    match p.topology with
    | Ring ->
        let deg = 1 + Splitmix.int g p.max_neigh in
        List.init deg (fun i -> (key + i) mod l)
    | Clusters ->
        let blocks = max 1 (l / 8) in
        let block = key mod blocks in
        let lo = block * (l / blocks) in
        let width = max 1 (l / blocks) in
        let deg = 1 + Splitmix.int g (min p.max_neigh width) in
        let inside = List.init deg (fun _ -> lo + Splitmix.int g width) in
        let hub = if Splitmix.float g < 0.2 then [ 0 ] else [] in
        List.sort_uniq compare (hub @ inside)
    | Bipartite ->
        let half = max 1 (l / 2) in
        let lo = if key mod 2 = 0 then 0 else half in
        let width = if key mod 2 = 0 then half else l - half in
        let deg = 1 + Splitmix.int g (min p.max_neigh (max 1 width)) in
        List.sort_uniq compare (List.init deg (fun _ -> lo + Splitmix.int g (max 1 width)))
    | Subsets ->
        let deg = 1 + Splitmix.int g p.max_neigh in
        List.sort_uniq compare (List.init deg (fun _ -> Splitmix.int g l))
    | Star ->
        if Splitmix.int g 4 = 0 && l > 1 then [ 0; 1 + Splitmix.int g (l - 1) ] else [ 0 ]

  let children p (depth, key) =
    if depth >= p.max_depth then []
    else
      let g = Splitmix.create ((((p.seed * 19_260_817) + depth) * 1_000_003) + key) in
      if Splitmix.float g >= p.push_prob then []
      else
        let n = 1 + Splitmix.int g p.max_children in
        List.init n (fun c ->
            if p.unique_children then (depth + 1, (key * (p.max_children + 1)) + c + 1)
            else (depth + 1, Splitmix.int g p.key_range))

  let token (depth, key) = (depth * 1_000_003) + key

  (* One splitmix64 step as a 64-bit mixer; canonical digests sum these
     per cell, making the per-cell combination order-insensitive (the
     committed-task multiset is lattice-invariant; the commit order is
     only thread-invariant). *)
  let mix i = Splitmix.next_int64 (Splitmix.create ((i * 2) + 1))

  let key_of (depth, key) = (depth * 10_000_019) + key

  (* Task priority: a SplitMix hash of (salt, item) folded into
     [0, prio_range). Pure in (params, item), so every re-execution and
     every configuration sees the same bucket assignment; perturbing
     [prio_salt] reshuffles the buckets (the positive control). *)
  let priority_of p item =
    if p.prio_range <= 1 then 0
    else Splitmix.int (Splitmix.create ((p.prio_salt * 1_000_003) + token item)) p.prio_range

  let name_of_params p =
    Printf.sprintf "gen(seed=%d,%s,tasks=%d,locks=%d,depth=%d)" p.seed
      (topology_name p.topology) p.tasks p.locks p.max_depth

  (* A fresh world (locks + output cells), the unexecuted run
     description over it and a reader of the cells — the generated
     operator's plan, which every caller runs through its table row
     [Replay_cases.gen]. The cell array is the world's entire state; the
     snapshot hook copies the lists in and out, making gen rows
     cross-process resumable. *)
  let plan ~static_id p =
    let locks = Galois.Lock.create_array p.locks in
    let cells = Array.init p.locks (fun _ -> ref []) in
    let operator ctx item =
      let g = item_rng p item in
      let neigh = neighborhood p item in
      List.iter (fun j -> Galois.Context.acquire ctx locks.(j)) neigh;
      Galois.Context.work ctx (1 + Splitmix.int g p.work_max);
      let pure = Splitmix.float g < p.pure_prob in
      if pure then
        (* Read-only task: no failsafe, no writes — but it may still
           create work (exercises the scheduler's pure-task path). *)
        List.iter (Galois.Context.push ctx) (children p item)
      else begin
        let value = token item * 31 in
        if Splitmix.float g < p.save_prob then Galois.Context.save ctx value;
        Galois.Context.failsafe ctx;
        (* The continuation must be an optimization, not a semantic
           switch: recomputation yields the same value. *)
        let v = match Galois.Context.saved ctx with Some v -> v | None -> value in
        List.iter (fun j -> cells.(j) := (token item + v) :: !(cells.(j))) neigh;
        List.iter (Galois.Context.push ctx) (children p item)
      end
    in
    let items = Array.init p.tasks (fun k -> (0, k)) in
    let run =
      Galois.Run.make ~operator items
      |> Galois.Run.app "gen"
      |> Galois.Run.priority (priority_of p)
      |> Galois.Run.snapshot_state
           ~save:(fun () -> Array.map (fun c -> !c) cells)
           ~restore:(fun saved -> Array.iteri (fun i v -> cells.(i) := v) saved)
      |> if static_id then Galois.Run.static_id key_of else Fun.id
    in
    (run, fun () -> cells)

  let output_digest cells =
    Array.fold_left
      (fun d cell ->
        List.fold_left D.fold_int (D.fold_int d (List.length !cell)) (List.rev !cell))
      D.seed cells

  let canonical_digest cells ~commits =
    let d =
      Array.fold_left
        (fun d cell -> D.fold_int64 d (List.fold_left (fun s x -> Int64.add s (mix x)) 0L !cell))
        D.seed cells
    in
    D.fold_int d commits

  (* The answer of a row whose children repeat keys: the set of values
     each cell received. Without static ids a repeated item is a task
     per push, and every copy writes the same values; with them the
     copies collapse into one task (§3.3), so a value written twice
     into one cell under static ids folds a mark no other run has. *)
  let repeated_digest ~static_id cells =
    Array.fold_left
      (fun d cell ->
        let all = List.sort Int.compare !cell in
        let set = List.sort_uniq Int.compare all in
        let d = List.fold_left D.fold_int (D.fold_int d (List.length set)) set in
        if static_id && List.compare_lengths set all <> 0 then D.fold_string d "uncollapsed"
        else d)
      D.seed cells
end

(* ------------------------------------------------------------------ *)
(* The per-app table                                                   *)
(* ------------------------------------------------------------------ *)

(* Each row is an app's plan over inputs built once per row, plus how
   to digest the output it reads back and how galois-run reports it.
   [fresh] builds a brand-new world per call: crash/resume needs one
   world for the uninterrupted reference and another to crash, and every
   lattice point starts from scratch. The item/state/output types differ
   per app, hence the existential. galois-run, the lattice
   ([check_invariance]), the checkpoint/replay harness and the audit rows
   ([Audit_cases]) all run these rows. *)
module Replay_cases = struct
  type t =
    | Case : {
        name : string;
        static_id_capable : bool;
        snapshot_capable : bool;
            (* the description carries a snapshot_state hook, so
               serialized (cross-process) resume is possible; without it
               only live in-process resume is *)
        fresh : static_id:bool -> unit -> ('i, 's) Galois.Run.t * (unit -> 'o);
        output_digest : 'o -> D.t;
        canonical_digest : 'o -> commits:int -> D.t;
        summary : 'o -> string;
      }
        -> t

  let gen ~seed =
    let p = Gen.random_params ~seed in
    Case
      {
        name = Gen.name_of_params p;
        static_id_capable = p.Gen.unique_children;
        snapshot_capable = true;
        fresh = (fun ~static_id () -> Gen.plan ~static_id p);
        output_digest = Gen.output_digest;
        canonical_digest = Gen.canonical_digest;
        summary = (fun cells -> Printf.sprintf "%d cells" (Array.length cells));
      }

  let gen_repeated ~seed =
    let p = Gen.random_params ~seed in
    (* Tasks of the first two generations push with at least even
       odds, and children draw their keys from an eighth of the task
       range, so many pushes repeat an item. *)
    let p =
      { p with Gen.unique_children = false; key_range = max 2 (p.tasks / 8);
        push_prob = Float.max 0.5 p.push_prob; max_depth = max 2 p.max_depth }
    in
    Case
      {
        name = "repeated-" ^ Gen.name_of_params p;
        static_id_capable = true;
        snapshot_capable = true;
        fresh =
          (fun ~static_id () ->
            let run, cells = Gen.plan ~static_id p in
            (run, fun () -> (static_id, cells ())));
        output_digest = (fun (_, cells) -> Gen.output_digest cells);
        canonical_digest =
          (fun (static_id, cells) ~commits:_ -> Gen.repeated_digest ~static_id cells);
        summary = (fun (_, cells) -> Printf.sprintf "%d cells" (Array.length cells));
      }

  (* A benchmark row: no static ids, and an answer that does not depend
     on the commit count — the output itself unless [canonical] says
     otherwise. *)
  let app name ?(snapshot = false) plan ~output ?(canonical = output) summary =
    Case
      {
        name;
        static_id_capable = false;
        snapshot_capable = snapshot;
        fresh = (fun ~static_id:_ () -> plan ());
        output_digest = output;
        canonical_digest = (fun o ~commits:_ -> canonical o);
        summary;
      }

  (* The directed input of the bfs, sssp and pagerank rows; cc, mis,
     triangles and kcore run its symmetrisation. *)
  let graph ~n ~seed = Graphlib.Generators.kout ~seed ~n ~k:5 ()
  let sym ~n ~seed = Graphlib.Csr.symmetrize (graph ~n ~seed)
  let digest_ints arr = Array.fold_left D.fold_int D.seed arr
  let count p arr = Array.fold_left (fun a x -> if p x then a + 1 else a) 0 arr
  let named app n seed = Printf.sprintf "%s(n=%d,seed=%d)" app n seed

  (* BFS and SSSP distances, component labels, triangle counts and
     coreness are unique: the output is its own canonical form across
     the whole lattice. *)
  let bfs ~n ~seed =
    let g = graph ~n ~seed in
    app (named "bfs" n seed) ~snapshot:true
      (fun () -> Apps.Bfs.plan g ~source:0)
      ~output:digest_ints
      (fun dist ->
        Printf.sprintf "reached %d of %d nodes; valid=%b"
          (count (( <> ) Apps.Bfs.unreached) dist)
          n
          (Apps.Bfs.validate g ~source:0 dist))

  let sssp ~n ~seed =
    let g = graph ~n ~seed in
    let w = Graphlib.Graph_io.random_weights ~seed:(seed + 1) g in
    app (named "sssp" n seed) ~snapshot:true
      (fun () -> Apps.Sssp.plan g w ~source:0)
      ~output:digest_ints
      (fun dist ->
        Printf.sprintf "reached %d of %d nodes; valid=%b"
          (count (( <> ) Apps.Sssp.unreached) dist)
          n
          (Apps.Sssp.validate g w ~source:0 dist))

  let cc ~n ~seed =
    let g = sym ~n ~seed in
    app (named "cc" n seed)
      (fun () -> Apps.Cc.plan g)
      ~output:digest_ints
      (fun label ->
        Printf.sprintf "%d components; valid=%b" (Apps.Cc.count_components label)
          (Apps.Cc.validate g label))

  (* The MSF weight and size are unique; the edge ids are not canonical
     across configurations (the same undirected edge carries two directed
     edge ids, and which one represents it depends on contraction order),
     so only (weight, size) goes into the canonical digest. The full edge
     list still must be thread-invariant at a fixed configuration. *)
  let boruvka ~n ~seed =
    let g = Graphlib.Csr.symmetrize (Graphlib.Generators.kout ~seed ~n ~k:4 ()) in
    let w = Graphlib.Graph_io.undirected_random_weights ~seed:(seed + 1) g in
    app (named "boruvka" n seed)
      (fun () -> Apps.Boruvka.plan g w)
      ~output:(fun (f : Apps.Boruvka.forest) ->
        D.fold_int (List.fold_left D.fold_int D.seed f.parent_edge) f.total_weight)
      ~canonical:(fun f ->
        D.fold_int (D.fold_int D.seed (List.length f.parent_edge)) f.total_weight)
      (fun f ->
        Printf.sprintf "forest: %d edges, total weight %d; valid=%b" (List.length f.parent_edge)
          f.total_weight (Apps.Boruvka.validate g f))

  (* Which maximal independent set a det run finds depends on its
     configuration: only its validity is canonical. *)
  let mis ~n ~seed =
    let g = sym ~n ~seed in
    let valid = Apps.Mis.is_maximal_independent g in
    app (named "mis" n seed)
      (fun () -> Apps.Mis.plan g)
      ~output:(Array.fold_left D.fold_bool D.seed)
      ~canonical:(fun m -> D.fold_bool D.seed (valid m))
      (fun m -> Printf.sprintf "|MIS| = %d; valid=%b" (count Fun.id m) (valid m))

  let triangles ~n ~seed =
    let g = sym ~n ~seed in
    app (named "triangles" n seed)
      (fun () -> Apps.Triangles.plan g)
      ~output:(D.fold_int D.seed)
      (fun total -> Printf.sprintf "%d triangles; valid=%b" total (total = Apps.Triangles.serial g))

  (* The residual push reaches its fixed point along a
     configuration-dependent path, so the ranks are only thread-invariant.
     What every configuration shares is the bound on the shortfall
     (Apps.Pagerank.max_rel_diff): every rank lies within 1% of the
     power iteration's. *)
  let pagerank ~n ~seed =
    let g = graph ~n ~seed in
    let reference = Apps.Pagerank.serial g in
    app (named "pagerank" n seed)
      (fun () -> Apps.Pagerank.plan g)
      ~output:(Array.fold_left D.fold_float D.seed)
      ~canonical:(fun ranks ->
        D.fold_bool D.seed (Apps.Pagerank.max_rel_diff ~reference ranks <= 0.01))
      (fun ranks ->
        Printf.sprintf "max relative deviation from power iteration: %.5f"
          (Apps.Pagerank.max_rel_diff ~reference ranks))

  (* A mesh's canonical triangle list: order-independent, so equal
     meshes digest equally whatever order they were built in. *)
  let digest_mesh mesh =
    List.fold_left
      (fun d tri -> List.fold_left (fun d (x, y) -> D.fold_float (D.fold_float d x) y) d tri)
      D.seed (Apps.Dt.canonical mesh)

  let consistent mesh = Result.is_ok (Mesh.check_consistency mesh)

  (* The Delaunay triangulation of points in general position is
     unique. *)
  let dt ~points ~seed =
    let pts = Geometry.Point.random_unit_square ~seed (max 4 points) in
    app
      (Printf.sprintf "dt(points=%d,seed=%d)" points seed)
      (fun () -> Apps.Dt.plan pts)
      ~output:digest_mesh
      (fun mesh ->
        let bad = Mesh.delaunay_violations mesh in
        Printf.sprintf "triangles=%d, delaunay violations=%d; valid=%b"
          (Mesh.triangle_count mesh) bad
          (bad = 0 && consistent mesh))

  (* Refinement's full output (the refined mesh) is schedule-dependent
     across configurations — different insertion orders pick different
     Steiner points — so only the postcondition is canonical. At a fixed
     configuration the mesh itself must be thread-invariant, compared via
     its canonical triangle list. *)
  let dmr ~points ~seed =
    let pts = Geometry.Point.random_unit_square ~seed points in
    let refined = Apps.Dmr.refined Apps.Dmr.default_config in
    app
      (Printf.sprintf "dmr(points=%d,seed=%d)" points seed)
      (fun () -> Apps.Dmr.plan (Apps.Dt.serial pts))
      ~output:digest_mesh
      ~canonical:(fun mesh -> D.fold_bool (D.fold_bool D.seed (consistent mesh)) (refined mesh))
      (fun mesh ->
        Printf.sprintf "triangles=%d; valid=%b" (Mesh.triangle_count mesh)
          (consistent mesh && refined mesh))

  let kcore ~n ~seed =
    let g = sym ~n ~seed in
    app (named "kcore" n seed) ~snapshot:true
      (fun () -> Apps.Kcore.plan g)
      ~output:digest_ints
      (fun core ->
        Printf.sprintf "max coreness=%d; valid=%b" (Array.fold_left max 0 core)
          (Apps.Kcore.validate g core))

  (* Command-line names, in table order. *)
  let rows =
    let graph row ~n ~points:_ ~seed = row ~n ~seed
    and mesh row ~n:_ ~points ~seed = row ~points ~seed in
    [
      ("bfs", graph bfs);
      ("sssp", graph sssp);
      ("cc", graph cc);
      ("boruvka", graph boruvka);
      ("mis", graph mis);
      ("triangles", graph triangles);
      ("pagerank", graph pagerank);
      ("dt", mesh dt);
      ("dmr", mesh dmr);
      ("kcore", graph kcore);
    ]

  let all ~n ~points ~seed = List.map (fun (_, row) -> row ~n ~points ~seed) rows

  let of_app name ~n ~points ~seed =
    match List.assoc_opt (if name = "mst" then "boruvka" else name) rows with
    | Some row -> Ok (row ~n ~points ~seed)
    | None ->
        Error
          (Printf.sprintf "unknown app %S (expected %s | mst)" name
             (String.concat " | " (List.map fst rows)))
end

(* ------------------------------------------------------------------ *)
(* The invariance checker                                              *)
(* ------------------------------------------------------------------ *)

type line_diff = { line : int; round : int; expected_line : string; got_line : string }

type divergence = {
  case_name : string;
  config : string;
  threads : int;
  quantity : string;
      (* "sched-digest" | "det-counters" | "output-digest"
         | "canonical-digest" | "trace-stream" (digests of the
         deterministic event stream) *)
  expected : D.t;
  got : D.t;
  first_line : line_diff option;  (* trace-stream: where the streams part *)
}

type report = { case_name : string; runs : int; divergences : divergence list }

let ok r = r.divergences = []

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "%s [%s, %d threads]: %s %a, expected %a" d.case_name d.config d.threads
    d.quantity D.pp d.got D.pp d.expected;
  Option.iter
    (fun l ->
      Fmt.pf ppf "; first differing line %d (round %d): %S, expected %S" l.line l.round
        l.got_line l.expected_line)
    d.first_line

let pp_report ppf r =
  if ok r then Fmt.pf ppf "%s: invariant over %d runs" r.case_name r.runs
  else
    Fmt.pf ppf "@[<v>%s: %d divergence(s) in %d runs:@ %a@]" r.case_name
      (List.length r.divergences) r.runs
      (Fmt.list ~sep:Fmt.cut pp_divergence)
      r.divergences

(* The counters [Obs.counter_table] marks deterministic, as one digest:
   the lattice holds the table to that claim across thread counts. *)
let det_counters_digest stats =
  let c = Galois.Stats.totals stats in
  List.fold_left (fun d f -> D.fold_int d (f.Obs.get c)) D.seed Obs.det_counters

(* What one lattice point observes of a row. *)
type observed = {
  sched_digest : D.t;  (* Stats.t.digest: absent for serial/nondet *)
  det_counters : D.t;
  output_digest : D.t;  (* order-sensitive digest of the final output *)
  canonical_digest : D.t;  (* configuration-invariant digest of the answer *)
  trace : Obs.stamped list;
  det_trace : string;  (* Obs.deterministic_lines of [trace] *)
}

(* Solve a fresh world of the row under [policy] with [Run.trace], which
   fails the run rather than return a stream its ring truncated. *)
let observe (Replay_cases.Case c) ~pool ~policy ~static_id =
  let run, out = c.fresh ~static_id () in
  let o, report = Galois.Run.solve ~pool ~policy (Galois.Run.trace run, out) in
  let trace = Option.get report.trace in
  {
    sched_digest = report.stats.digest;
    det_counters = det_counters_digest report.stats;
    output_digest = c.output_digest o;
    canonical_digest = c.canonical_digest o ~commits:report.stats.commits;
    trace;
    det_trace = Obs.deterministic_lines trace;
  }

(* The first deterministic line two streams disagree on (1-based), with
   the round in progress when the expected stream emitted it: 0 before
   the first round. A stream that ends early reads "<end of stream>". *)
let first_difference expected got =
  let lines trace =
    let round = ref 0 in
    List.filter_map
      (fun { Obs.event; _ } ->
        (match event with Obs.Round_begin r -> round := r.round | _ -> ());
        if Obs.deterministic event then Some (!round, Fmt.str "%a" Obs.pp_event event)
        else None)
      trace
  in
  let diff line round expected_line got_line =
    Some { line; round; expected_line; got_line }
  in
  let rec go line = function
    | (round, e) :: es, (_, g) :: gs ->
        if String.equal e g then go (line + 1) (es, gs) else diff line round e g
    | (round, e) :: _, [] -> diff line round e "<end of stream>"
    | [], (round, g) :: _ -> diff line round "<end of stream>" g
    | [], [] -> None
  in
  go 1 (lines expected, lines got)

let check_invariance ?(threads = default_threads) (Replay_cases.Case c as row) =
  let tmax = List.fold_left max 1 threads in
  Galois.Pool.with_pool ~domains:tmax (fun pool ->
      let runs = ref 0 and divergences = ref [] in
      (* The canonical answer of the whole lattice is anchored at the
         first configuration's first-thread-count run. *)
      let canonical = ref None in
      List.iter
        (fun cfg ->
          let diverged ?first_line threads quantity expected got =
            divergences :=
              { case_name = c.name; config = cfg.label; threads; quantity; expected; got;
                first_line }
              :: !divergences
          in
          let check threads quantity expected got =
            if not (D.equal expected got) then diverged threads quantity expected got
          in
          let run t =
            incr runs;
            observe row ~pool
              ~policy:(Galois.Policy.det ~options:cfg.options t)
              ~static_id:cfg.static_id
          in
          match List.map (fun t -> (t, run t)) threads with
          | [] -> ()
          | (t0, reference) :: rest ->
              (match !canonical with
              | None -> canonical := Some reference.canonical_digest
              | Some anchor -> check t0 "canonical-digest" anchor reference.canonical_digest);
              List.iter
                (fun (t, r) ->
                  check t "sched-digest" reference.sched_digest r.sched_digest;
                  check t "det-counters" reference.det_counters r.det_counters;
                  check t "output-digest" reference.output_digest r.output_digest;
                  check t "canonical-digest" reference.canonical_digest r.canonical_digest;
                  (* Byte-compare the deterministic event streams; report
                     them as digests plus their first differing line. *)
                  if not (String.equal reference.det_trace r.det_trace) then
                    diverged t "trace-stream"
                      ?first_line:(first_difference reference.trace r.trace)
                      (D.fold_string D.seed reference.det_trace)
                      (D.fold_string D.seed r.det_trace))
                rest)
        (lattice ~static_id_capable:c.static_id_capable);
      { case_name = c.name; runs = !runs; divergences = List.rev !divergences })

(* Positive control: the audit must be able to see a difference. The
   generated rows of [seed] and [seed + 1] must produce different
   canonical digests under [policy]; if they ever agree, the digest
   pipeline has collapsed (and every invariance "pass" above is
   meaningless). *)
let seeds_distinguished ?(threads = 2) ~seed policy =
  Galois.Pool.with_pool ~domains:threads (fun pool ->
      let digest s =
        (observe (Replay_cases.gen ~seed:s) ~pool ~policy ~static_id:false).canonical_digest
      in
      not (D.equal (digest seed) (digest (seed + 1))))

(* Positive control for the soft-priority axis: perturbing the bucket
   assignment (the priority salt) must change the ordered schedule
   digest — buckets are folded into it — while leaving the unordered
   (prio=off) schedule untouched, since that path never consults
   priorities. Failure on either side means the bucket plumbing is
   dead and the prio lattice rows above prove nothing. *)
let prio_salt_distinguished ?(threads = 2) ~seed () =
  Galois.Pool.with_pool ~domains:threads (fun pool ->
      (* Force a non-trivial priority range: a drawn range of 1 would
         make every salt equivalent. *)
      let p = { (Gen.random_params ~seed) with Gen.prio_range = 64 } in
      let digest ~salt policy =
        let run, _ = Gen.plan ~static_id:false { p with Gen.prio_salt = salt } in
        (run |> Galois.Run.policy policy |> Galois.Run.pool pool |> Galois.Run.exec).stats.digest
      in
      let ordered =
        Galois.Policy.det
          ~options:{ Galois.Policy.default_det with priority = Galois.Policy.Prio_delta 1 }
          threads
      in
      let unordered = Galois.Policy.det threads in
      let s = p.Gen.prio_salt in
      (not (D.equal (digest ~salt:s ordered) (digest ~salt:(s + 1) ordered)))
      && D.equal (digest ~salt:s unordered) (digest ~salt:(s + 1) unordered))

(* ------------------------------------------------------------------ *)
(* Cases for the dynamic neighborhood/race audit                       *)
(* ------------------------------------------------------------------ *)

module Audit_cases = struct
  type t = {
    name : string;
    run : policy:Galois.Policy.t -> pool:Galois.Pool.t -> Galois.Audit.report;
  }

  let need = function
    | Some a -> a
    | None -> invalid_arg "Detcheck.Audit_cases: run produced no audit report"

  (* Every Run-based benchmark under [Galois.Run.audit]. All of them are
     cautious by construction, so the audit must come back clean; the
     race check also re-verifies the scheduler's disjoint-neighborhood
     invariant (acquires count as writes), which bites even though the
     operators carry no [Context.touch] instrumentation. Every table row
     solves a fresh plan, so worlds the operator mutates (mesh, flow
     network) are rebuilt per run; pfp keeps its own row because it runs
     one plan per epoch. *)
  let apps ~n ~points ~seed =
    List.map
      (fun (Replay_cases.Case c) ->
        {
          name = c.name;
          run =
            (fun ~policy ~pool ->
              need
                (snd (Galois.Run.solve ~audit:true ~pool ~policy (c.fresh ~static_id:false ())))
                  .audit);
        })
      (Replay_cases.all ~n ~points ~seed)
    @ [
        {
          name = "pfp";
          run =
            (fun ~policy ~pool ->
              let fg, caps, source, sink =
                Graphlib.Generators.flow_network ~seed:(seed + 3) ~n ~k:4 ()
              in
              let net = Apps.Flow_network.of_graph fg caps ~source ~sink in
              need (Apps.Pfp.galois ~audit:true ~policy ~pool net).Apps.Pfp.audit);
        };
      ]

  (* Positive controls: deliberately broken operators proving the audit
     can fail at all, with findings localized to (rule, round, task). *)

  type control = {
    cname : string;
    crun :
      policy:Galois.Policy.t ->
      pool:Galois.Pool.t ->
      Galois.Run.report * Galois.Audit.finding list;
        (* (report, witnesses): the run's report carries its audit and
           its event stream, and every witness finding must appear
           verbatim in the audit. *)
  }

  (* Pin the first-round window wide enough that all initial tasks of a
     control are inspected in round 1, independent of the adaptive
     task-count-derived default — the race control needs its two tasks
     in the same round to conflict. *)
  let widen policy =
    match policy with
    | Galois.Policy.Det { threads; options } ->
        Galois.Policy.Det { threads; options = { options with initial_window = Some 8 } }
    | p -> p

  (* BFS whose distance write lands while the neighborhood is still
     growing — before the failsafe point — violating cautiousness (§2):
     a defeated task would leave the write behind. The initial task is
     alone in round 1, so the audit must pin (cautiousness, round 1,
     task 1) on the source node's location. *)
  let non_cautious_bfs ~n ~seed =
    let g = Graphlib.Generators.kout ~seed ~n ~k:3 () in
    let crun ~policy ~pool =
      let nn = Graphlib.Csr.nodes g in
      let locks = Galois.Lock.create_array nn in
      let dist = Array.make nn max_int in
      let operator ctx (u, d) =
        Galois.Context.acquire ctx locks.(u);
        if dist.(u) <= d then ()
        else begin
          dist.(u) <- d;
          Galois.Context.touch ctx locks.(u);
          Graphlib.Csr.iter_succ g u (fun v -> Galois.Context.acquire ctx locks.(v));
          Galois.Context.failsafe ctx;
          Graphlib.Csr.iter_succ g u (fun v ->
              if dist.(v) > d + 1 then Galois.Context.push ctx (v, d + 1))
        end
      in
      let report =
        Galois.Run.make ~operator [| (0, 0) |]
        |> Galois.Run.policy (widen policy)
        |> Galois.Run.pool pool
        |> Galois.Run.audit
        |> Galois.Run.trace
        |> Galois.Run.exec
      in
      ( report,
        [
          {
            Galois.Audit.rule = Galois.Audit.Cautiousness;
            round = 1;
            task = 1;
            other = 0;
            lid = Galois.Lock.id locks.(0);
          };
        ] )
    in
    { cname = Printf.sprintf "non-cautious-bfs(n=%d,seed=%d)" n seed; crun }

  (* Two relaxation tasks that each acquire only their own node and then
     both write the shared sink's label without ever acquiring it: a
     containment escape on each task and a write/write race between
     them, all in round 1 (neighborhoods are disjoint, so the scheduler
     happily commits both). *)
  let racy_sssp () =
    let crun ~policy ~pool =
      let g = Graphlib.Csr.of_edges ~n:3 [| (0, 2); (1, 2) |] in
      let locks = Galois.Lock.create_array 3 in
      let dist = Array.make 3 max_int in
      let operator ctx u =
        Galois.Context.acquire ctx locks.(u);
        Galois.Context.failsafe ctx;
        Graphlib.Csr.iter_succ g u (fun v ->
            dist.(v) <- min dist.(v) (u + 1);
            Galois.Context.touch ctx locks.(v))
      in
      let report =
        Galois.Run.make ~operator [| 0; 1 |]
        |> Galois.Run.policy (widen policy)
        |> Galois.Run.pool pool
        |> Galois.Run.audit
        |> Galois.Run.trace
        |> Galois.Run.exec
      in
      let lid = Galois.Lock.id locks.(2) in
      ( report,
        [
          { Galois.Audit.rule = Galois.Audit.Containment; round = 1; task = 1; other = 0; lid };
          { Galois.Audit.rule = Galois.Audit.Containment; round = 1; task = 2; other = 0; lid };
          { Galois.Audit.rule = Galois.Audit.Race; round = 1; task = 2; other = 1; lid };
        ] )
    in
    { cname = "racy-sssp"; crun }

  let controls ~n ~seed = [ non_cautious_bfs ~n ~seed; racy_sssp () ]
end

(* ------------------------------------------------------------------ *)
(* The service lattice                                                 *)
(* ------------------------------------------------------------------ *)

(* Determinism at the service boundary: an identical batch of mixed
   bfs/sssp/cc queries against a shared catalog must yield byte-identical
   responses, per-job deterministic event streams and a byte-identical
   folded service digest across pool sizes and across admission
   interleavings (the same submissions grouped into different arrival
   batches). This is the [check_invariance] idea lifted one layer up:
   the lattice axes are (pool size x batching), the compared quantity is
   the rendered response stream. *)
module Service_case = struct
  (* Deterministic mixed workload: query [i] is a function of
     (seed, i) alone. Sources are drawn over the catalog's node range;
     an out-of-range source is never generated (those are exercised by
     unit tests — here every query must complete so the stream is
     maximally sensitive). *)
  let queries ~seed ~nodes ~count =
    List.init count (fun i ->
        let g = Splitmix.create ((((seed * 1_000_003) + i) * 2) + 1) in
        match Splitmix.int g 4 with
        | 0 | 1 -> Service.Query.Bfs { graph = "kout"; source = Splitmix.int g nodes }
        | 2 -> Service.Query.Sssp { graph = "kout"; source = Splitmix.int g nodes }
        | _ -> Service.Query.Cc { graph = "sym" })

  type observed = {
    lines : string list;
        (* one per job, in job-id order: the rendered response plus the
           digest of the job's own deterministic event stream *)
    service_digest : D.t;
  }

  (* A fresh in-memory ring for one job's event stream: the sink feeds
     it and [lines ()] renders its deterministic lines. A ring that
     dropped events holds only the tail of the stream, and comparing
     tails would pass a divergence in the lost head, so [lines] fails
     the session instead, as [Galois.Run.trace] fails a run. *)
  let capture name =
    let mem = Obs.Memory.create () in
    let lines () =
      match Obs.Memory.dropped mem with
      | 0 -> Obs.deterministic_lines (Obs.Memory.contents mem)
      | d -> failwith (Printf.sprintf "detcheck %s: trace ring dropped %d events" name d)
    in
    (Obs.Memory.sink mem, lines)

  (* One complete service session on a fresh pool: submit every query
     (each with its own memory sink), draining after every [chunk]
     submissions and once more at the end. *)
  let run_once ~pool_size ~chunk ~seed ~nodes ~count =
    Galois.Pool.with_pool ~domains:pool_size (fun pool ->
        let catalog = Service.Catalog.synthetic ~seed ~nodes () in
        let server = Service.Server.create ~catalog pool in
        let captures =
          List.mapi
            (fun i q ->
              let sink, lines = capture (Printf.sprintf "service job %d" i) in
              (match Service.Server.submit ~sink server q with
              | `Accepted _ -> ()
              | `Rejected id -> failwith (Printf.sprintf "job %d rejected" id));
              if (Service.Server.pending server) mod chunk = 0 then
                ignore (Service.Server.drain server);
              lines)
            (queries ~seed ~nodes ~count)
        in
        ignore (Service.Server.drain server);
        let lines =
          List.map2
            (fun r lines ->
              Service.Server.render r ^ "|" ^ D.to_hex (D.fold_string D.seed (lines ())))
            (Service.Server.responses server)
            captures
        in
        { lines; service_digest = Service.Server.digest server })

  let default_pool_sizes = default_threads

  let check ?(pool_sizes = default_pool_sizes) ?(count = 120) ?(nodes = 400)
      ~seed () =
    let name = Printf.sprintf "service(count=%d,nodes=%d,seed=%d)" count nodes seed in
    (* Two admission interleavings: everything in one arrival batch, and
       uneven batches of 17. *)
    let interleavings = [ ("batch=all", count); ("batch=17", 17) ] in
    let runs = ref 0 and divergences = ref [] in
    let reference = ref None in
    List.iter
      (fun pool_size ->
        List.iter
          (fun (ilabel, chunk) ->
            incr runs;
            let got = run_once ~pool_size ~chunk ~seed ~nodes ~count in
            let config = Printf.sprintf "pool=%d,%s" pool_size ilabel in
            let diverged quantity expected gotd =
              divergences :=
                {
                  case_name = name;
                  config;
                  threads = pool_size;
                  quantity;
                  expected;
                  got = gotd;
                  first_line = None;
                }
                :: !divergences
            in
            match !reference with
            | None -> reference := Some got
            | Some ref_ ->
                if not (D.equal ref_.service_digest got.service_digest) then
                  diverged "service-digest" ref_.service_digest got.service_digest;
                if not (List.equal String.equal ref_.lines got.lines) then
                  let fold ls = List.fold_left D.fold_string D.seed ls in
                  diverged "response-stream" (fold ref_.lines) (fold got.lines))
          interleavings)
      pool_sizes;
    { case_name = name; runs = !runs; divergences = List.rev !divergences }
end

(* ------------------------------------------------------------------ *)
(* Schedule dumps                                                      *)
(* ------------------------------------------------------------------ *)

(* The executed rounds as stable text: one "round=N window=W
   committed=C" line per recorded round, with absolute round numbers (a
   resumed run's schedule starts mid-run), then a "digest=<hex>
   rounds=R" trailer. A resumed run is correct iff its dump is the
   suffix of the uninterrupted run's dump. *)
module Schedule_dump = struct
  let lines (report : Galois.Run.report) =
    let rounds =
      match report.schedule with
      | Some (Galois.Schedule.Rounds rounds) -> rounds
      | Some (Galois.Schedule.Flat _) | None -> []
    in
    let first = report.stats.rounds - List.length rounds + 1 in
    List.mapi
      (fun i window ->
        let committed =
          Array.fold_left
            (fun a (t : Galois.Schedule.task_record) -> if t.committed then a + 1 else a)
            0 window
        in
        Printf.sprintf "round=%d window=%d committed=%d" (first + i) (Array.length window)
          committed)
      rounds
    @ [ Printf.sprintf "digest=%s rounds=%d" (D.to_hex report.stats.digest)
          report.stats.rounds ]

  (* "round=N ..." -> Some (N, line); anything else -> None *)
  let round_of_line line =
    match String.index_opt line ' ' with
    | Some sp when String.starts_with ~prefix:"round=" line ->
        int_of_string_opt (String.sub line 6 (sp - 6)) |> Option.map (fun r -> (r, line))
    | _ -> None

  let split lines =
    ( List.filter_map round_of_line lines,
      List.find_opt (String.starts_with ~prefix:"digest=") lines )

  let check_suffix ~full ~resumed =
    let full_rounds, full_trailer = split full in
    let resumed_rounds, resumed_trailer = split resumed in
    let round_problem (r, line) =
      match List.assoc_opt r full_rounds with
      | None -> Some (Printf.sprintf "round %d of the resumed dump is not in the full dump" r)
      | Some l when l <> line ->
          Some (Printf.sprintf "round %d differs:\n  full:    %s\n  resumed: %s" r l line)
      | Some _ -> None
    in
    let problems =
      (if resumed_rounds = [] then [ "the resumed dump has no round lines" ] else [])
      @ List.filter_map round_problem resumed_rounds
      @
      match (full_trailer, resumed_trailer) with
      | Some a, Some b when a = b -> []
      | Some a, Some b ->
          [ Printf.sprintf "digest trailers differ:\n  full:    %s\n  resumed: %s" a b ]
      | _ -> [ "missing digest trailer" ]
    in
    if problems = [] then Ok (List.length resumed_rounds) else Error problems
end
