(* Input scales for the reproduction harness.

   The paper's inputs (§4.2) are 10M-node graphs and 2.5M-point meshes
   run on 40-core machines; the default scale keeps the same input
   *distributions* at sizes that execute in seconds on two cores. The
   relative behaviour the figures report (abort ratios, round counts,
   scheduling overhead ratios, atomic rates per work unit) is
   scale-stable; absolute rates are reported from the machine
   simulator either way. *)

type t = {
  name : string;
  bfs_nodes : int;
  bfs_degree : int;
  mis_nodes : int;
  mis_degree : int;
  dt_points : int;
  dmr_points : int;
  pfp_nodes : int;
  pfp_degree : int;
  blackscholes_options : int;
  bodytrack : Apps.Bodytrack.config;
  freqmine : Apps.Freqmine.config;
  seed : int;
}

let small =
  {
    name = "small";
    bfs_nodes = 30_000;
    bfs_degree = 5;
    mis_nodes = 20_000;
    mis_degree = 5;
    dt_points = 4_000;
    dmr_points = 2_000;
    pfp_nodes = 1 lsl 12;
    pfp_degree = 4;
    blackscholes_options = 50_000;
    bodytrack = Apps.Bodytrack.default_config;
    freqmine = Apps.Freqmine.default_config;
    seed = 2014;
  }

let tiny =
  {
    small with
    name = "tiny";
    bfs_nodes = 4_000;
    mis_nodes = 3_000;
    dt_points = 800;
    dmr_points = 500;
    pfp_nodes = 1 lsl 9;
    blackscholes_options = 5_000;
    bodytrack = { Apps.Bodytrack.default_config with particles = 128; frames = 3 };
    freqmine = { Apps.Freqmine.default_config with transactions = 500 };
  }

(* The paper's §4.2 sizes. Only practical on a large-memory machine; the
   CLI exposes it for completeness. *)
let paper =
  {
    name = "paper";
    bfs_nodes = 10_000_000;
    bfs_degree = 5;
    mis_nodes = 10_000_000;
    mis_degree = 5;
    dt_points = 10_000_000;
    dmr_points = 2_500_000;
    pfp_nodes = 1 lsl 23;
    pfp_degree = 4;
    blackscholes_options = 10_000_000;
    bodytrack = { Apps.Bodytrack.default_config with particles = 4000; frames = 261 };
    freqmine = { Apps.Freqmine.default_config with transactions = 250_000; items = 1000 };
    seed = 2014;
  }

let by_name = function
  | "tiny" -> Some tiny
  | "small" -> Some small
  | "paper" -> Some paper
  | _ -> None
