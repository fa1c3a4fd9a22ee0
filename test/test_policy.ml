(* Policy string grammar and Det_options constructors: round-trips of
   the keyed det option block, reject cases, and setter validation. *)

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

module P = Galois.Policy
module O = Galois.Policy.Det_options

let roundtrip s =
  match P.of_string s with
  | Ok p -> P.to_string p
  | Error e -> Alcotest.failf "%S rejected: %s" s e

let test_roundtrips () =
  check_string "serial" "serial" (roundtrip "serial");
  check_string "nondet defaults to 1 thread" "nondet:1" (roundtrip "nondet");
  check_string "nondet:8" "nondet:8" (roundtrip "nondet:8");
  check_string "det defaults to 1 thread" "det:1" (roundtrip "det");
  check_string "det:4" "det:4" (roundtrip "det:4");
  check_string "default options collapse" "det:4" (roundtrip "det:4[]");
  check_string "window=auto is the default" "det:4" (roundtrip "det:4[window=auto]");
  check_string "full option block"
    "det:8[window=64,spread=1,ratio=0.95,cont=off]"
    (roundtrip "det:8[window=64,spread=1,ratio=0.95,cont=off]");
  (* Key order is normalized to window,spread,ratio,cont,validate,prio. *)
  check_string "key order normalized"
    "det:2[window=8,ratio=0.5,validate=on]"
    (roundtrip "det:2[validate=on,ratio=0.5,window=8]");
  check_string "prio=off is the default" "det:4" (roundtrip "det:4[prio=off]");
  check_string "prio=auto" "det:4[prio=auto]" (roundtrip "det:4[prio=auto]");
  check_string "prio=delta:16" "det:4[prio=delta:16]" (roundtrip "det:4[prio=delta:16]");
  check_string "prio normalized last" "det:2[window=8,prio=delta:4]"
    (roundtrip "det:2[prio=delta:4,window=8]");
  (* to_string output parses back to the same policy. *)
  let p = P.det 3 ~options:(O.make ~spread:4 ~continuation:false ()) in
  (match P.of_string (P.to_string p) with
  | Ok p' -> check_bool "of_string inverts to_string" true (p = p')
  | Error e -> Alcotest.fail e)

let reject s =
  match P.of_string s with
  | Error _ -> ()
  | Ok p -> Alcotest.failf "%S accepted as %s" s (P.to_string p)

let test_rejects () =
  reject "";
  reject "bogus";
  reject "det:0";
  reject "det:-1";
  reject "nondet:zero";
  reject "det:2[window=64";
  (* unterminated block *)
  reject "det:2[window=64]x";
  (* trailing garbage *)
  reject "det:2[window=0]";
  reject "det:2[window=sixty]";
  reject "det:2[spread=0]";
  reject "det:2[ratio=0]";
  reject "det:2[ratio=much]";
  reject "det:2[cont=maybe]";
  reject "det:2[pileup=3]";
  (* unknown key *)
  reject "det:2[window=8,window=8]";
  (* duplicate key *)
  reject "det:2[window=]";
  reject "det:2[window]";
  reject "det:2[prio=maybe]";
  reject "det:2[prio=delta]";
  (* delta needs a width *)
  reject "det:2[prio=delta:]";
  reject "det:2[prio=delta:0]";
  reject "det:2[prio=delta:-3]";
  reject "det:2[prio=delta:four]";
  reject "det:2[prio=auto,prio=auto]";
  (* duplicate key *)
  reject "serial[window=8]" (* options only make sense for det *)

let test_make () =
  check_bool "make () is default" true (O.make () = P.default_det);
  let o = O.make ~ratio:0.5 ~window:(Some 32) ~spread:1 ~continuation:false ~validate:true () in
  check_bool "ratio" true (o.P.target_ratio = 0.5);
  check_bool "window" true (o.P.initial_window = Some 32);
  check_bool "spread" true (o.P.spread = 1);
  check_bool "continuation" true (not o.P.continuation);
  check_bool "validate" true o.P.validate;
  check_bool "other fields default" true
    (O.make ~spread:1 () = { P.default_det with P.spread = 1 });
  check_bool "window None is auto" true ((O.make ~window:None ()).P.initial_window = None);
  (* Ratios above 1 pin the window (ablation use) and are allowed. *)
  check_bool "ratio > 1 allowed" true ((O.make ~ratio:2.0 ()).P.target_ratio = 2.0);
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  check_bool "ratio 0 rejected" true (raises (fun () -> O.make ~ratio:0.0 ()));
  check_bool "negative ratio rejected" true (raises (fun () -> O.make ~ratio:(-1.0) ()));
  check_bool "window 0 rejected" true (raises (fun () -> O.make ~window:(Some 0) ()));
  check_bool "spread 0 rejected" true (raises (fun () -> O.make ~spread:0 ()));
  check_bool "priority via make" true
    ((O.make ~priority:(P.Prio_delta 8) ()).P.priority = P.Prio_delta 8);
  check_bool "auto priority via make" true
    ((O.make ~priority:P.Prio_auto ()).P.priority = P.Prio_auto);
  check_bool "delta 0 rejected" true (raises (fun () -> O.make ~priority:(P.Prio_delta 0) ()));
  check_bool "negative delta rejected" true
    (raises (fun () -> O.make ~priority:(P.Prio_delta (-1)) ()))

let test_options_to_string () =
  check_string "default is empty" "" (O.to_string P.default_det);
  check_string "single key" "spread=1" (O.to_string (O.make ~spread:1 ()));
  check_string "fixed order" "window=16,cont=off"
    (O.to_string (O.make ~continuation:false ~window:(Some 16) ()));
  (* Float ratios survive the 12-significant-digit rendering. *)
  let o = O.make ~ratio:0.925 () in
  match O.of_string (O.to_string o) with
  | Ok o' -> check_bool "float round-trip" true (o'.P.target_ratio = 0.925)
  | Error e -> Alcotest.fail e

(* Property fuzz: to_string / of_string must be exact inverses over the
   full keyed grammar. Options are drawn at random — including ratios
   whose shortest 12-digit rendering is lossy and need the 17-digit
   fallback — rendered, reparsed and compared structurally; the
   rendering must also be a fixpoint (a second round-trip yields the
   same string). *)
let test_roundtrip_fuzz () =
  let module S = Parallel.Splitmix in
  let g = S.create 2014 in
  for i = 1 to 1000 do
    let ratio =
      match S.int g 5 with
      | 0 -> 0.95 (* the default: exercises key omission *)
      | 1 -> float_of_int (1 + S.int g 40) /. 20.0
      | 2 -> S.float g +. 1e-6 (* full-precision mantissas: %.17g fallback *)
      | 3 -> 1.0 /. float_of_int (3 + S.int g 97)
      | _ -> Float.succ (float_of_int (1 + S.int g 4) *. 0.1)
    in
    let window = if S.bool g then None else Some (1 + S.int g 1000) in
    let priority =
      match S.int g 3 with
      | 0 -> P.Prio_off
      | 1 -> P.Prio_auto
      | _ -> P.Prio_delta (1 + S.int g 1000)
    in
    let o =
      O.make ~ratio ~window ~spread:(1 + S.int g 8) ~continuation:(S.bool g)
        ~validate:(S.bool g) ~priority ()
    in
    let s = O.to_string o in
    (match O.of_string s with
    | Ok o' ->
        if o' <> o then Alcotest.failf "draw %d: %S reparsed to a different option set" i s;
        let s' = O.to_string o' in
        if not (String.equal s s') then
          Alcotest.failf "draw %d: rendering not a fixpoint (%S vs %S)" i s s'
    | Error e -> Alcotest.failf "draw %d: own rendering %S rejected: %s" i s e);
    (* And through the full policy grammar. *)
    let p = P.det ~options:o (1 + S.int g 16) in
    match P.of_string (P.to_string p) with
    | Ok p' ->
        if p' <> p then
          Alcotest.failf "draw %d: policy %S reparsed differently" i (P.to_string p)
    | Error e -> Alcotest.failf "draw %d: policy %S rejected: %s" i (P.to_string p) e
  done

let test_grammar_and_pp () =
  (match P.of_string "bogus" with
  | Error e ->
      check_string "grammar in the error"
        {|bad policy "bogus" (expected serial | nondet[:T] | det[:T][k=v,...])|} e
  | Ok _ -> Alcotest.fail "bogus accepted");
  check_string "pp agrees with to_string" (P.to_string (P.det 2)) (Fmt.str "%a" P.pp (P.det 2))

let suite =
  [
    Alcotest.test_case "policy string round-trips" `Quick test_roundtrips;
    Alcotest.test_case "policy string rejects" `Quick test_rejects;
    Alcotest.test_case "Det_options.make validates" `Quick test_make;
    Alcotest.test_case "Det_options.to_string" `Quick test_options_to_string;
    Alcotest.test_case "round-trip property fuzz" `Quick test_roundtrip_fuzz;
    Alcotest.test_case "grammar and pp" `Quick test_grammar_and_pp;
  ]
