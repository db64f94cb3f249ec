(* Differential testing of the three enumeration engines — compiled
   ([Solve.Kernel]), pruned branch-and-propagate, and the leaf-check
   oracles ([Stable.Naive], [Exhaustive.Naive]) — on random programs:

   - same assumption-free / stable / total model sets across all three;
   - the compiled kernel reproduces the pruned enumeration {e order}
     exactly (list equality, not just set equality) and never visits
     more search nodes;
   - same counts under [?limit] (assumption-free and total enumerate in
     different orders but both return min(limit, total) models);
   - each engine's [?limit:k] result is exactly the first k of its own
     unlimited enumeration (the documented search-order contract);
   - [stable_models ?limit] is the maximal subset of the same engine's
     limited assumption-free enumeration, and for the pruned and compiled
     engines (which filter on code arrays) exactly the
     interpretation-level [Stable.Naive.maximal] of it, in order;
   - the short-circuiting leaf check [Model.is_model_v] agrees with
     [Model.violations] on random assignments;
   - the pruned search only emits assumption-free models and starts with
     the least model;
   - on compiled preference programs ([Prefer.Compile]), the compiled
     kernel agrees with the pruned preferred-model route;
   - golden leaves that exactly one leaf-check condition rejects, and
     the empty program, give the same answers on all three engines.

   The generators cover random ordered programs (up to 3 components,
   negative heads, overruling/defeating) and OV-transformed seminegative
   programs (every atom branchable with both polarities — the
   stable-branching regime the pruning is for).  Iteration counts scale
   with FUZZ_ITERS, like the other fuzz suites. *)

open Logic
open Helpers
module Gen = QCheck2.Gen
module B = Ordered.Budget
module S = Ordered.Stable
module E = Ordered.Exhaustive
module K = Solve.Kernel

let iters name base =
  ignore name;
  match Sys.getenv_opt "FUZZ_ITERS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > base -> n
    | _ -> base)
  | None -> base

let gop_of p = Ordered.Gop.ground p 0

let af_pruned ?limit g = B.value (S.assumption_free_models ?limit g)
let af_naive ?limit g = B.value (S.Naive.assumption_free_models ?limit g)
let af_comp ?limit ?stats g = B.value (K.assumption_free_models ?limit ?stats g)
let st_pruned ?limit g = B.value (S.stable_models ?limit g)
let st_naive ?limit g = B.value (S.Naive.stable_models ?limit g)
let st_comp ?limit g = B.value (K.stable_models ?limit g)
let tot_pruned ?limit g = B.value (E.total_models ?limit g)
let tot_naive ?limit g = B.value (E.Naive.total_models ?limit g)
let tot_comp ?limit ?stats g = B.value (K.total_models ?limit ?stats g)

let interp_list_equal l1 l2 =
  List.length l1 = List.length l2 && List.for_all2 Interp.equal l1 l2

let prop_af_sets =
  qcheck
    ~count:(iters "af" 400)
    ~print:print_program "pruned = naive: assumption-free model sets"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      interp_set_equal (af_pruned g) (af_naive g))

let prop_stable_sets =
  qcheck
    ~count:(iters "stable" 250)
    ~print:print_program "pruned = naive: stable model sets"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      interp_set_equal (st_pruned g) (st_naive g))

let prop_total_sets =
  qcheck
    ~count:(iters "total" 250)
    ~print:print_program "pruned = naive: total model sets"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      interp_set_equal (tot_pruned g) (tot_naive g))

(* The compiled kernel's contract is stronger than set equality: same
   tree, same order, so its enumerations equal the pruned ones as lists,
   and nogood skips can only remove conflicting subtrees, so it never
   visits more nodes. *)
let prop_compiled_lists =
  qcheck
    ~count:(iters "compiled" 400)
    ~print:print_program
    "compiled = pruned: af/stable/total enumerations, in order"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      interp_list_equal (af_comp g) (af_pruned g)
      && interp_list_equal (st_comp g) (st_pruned g)
      && interp_list_equal (tot_comp g) (tot_pruned g))

let prop_compiled_nodes =
  qcheck
    ~count:(iters "compiled-nodes" 250)
    ~print:print_program "compiled visits no more nodes than pruned"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      let pruned = Ordered.Counters.create () in
      let comp = Ordered.Counters.create () in
      ignore (B.value (S.assumption_free_models ~stats:pruned g));
      ignore (af_comp ~stats:comp g);
      let pruned_tot = Ordered.Counters.create () in
      let comp_tot = Ordered.Counters.create () in
      ignore (B.value (E.total_models ~stats:pruned_tot g));
      ignore (tot_comp ~stats:comp_tot g);
      comp.Ordered.Counters.nodes <= pruned.Ordered.Counters.nodes
      && comp.Ordered.Counters.models = pruned.Ordered.Counters.models
      && comp_tot.Ordered.Counters.nodes <= pruned_tot.Ordered.Counters.nodes
      && comp_tot.Ordered.Counters.models = pruned_tot.Ordered.Counters.models)

(* OV transform of a random seminegative program: the -A axioms make every
   atom a head of both polarities, so the search genuinely branches three
   ways everywhere. *)
let gen_ov = Gen.list_size (Gen.int_range 1 6) (Test_props.gen_seminegative_rule 3)

let prop_ov_sets =
  qcheck
    ~count:(iters "ov" 200)
    ~print:print_rules
    "pruned = naive = compiled on OV programs (assumption-free and stable)"
    gen_ov
    (fun rs ->
      let g = Ordered.Bridge.ground_ov rs in
      interp_set_equal (af_pruned g) (af_naive g)
      && interp_set_equal (st_pruned g) (st_naive g)
      && interp_list_equal (af_comp g) (af_pruned g)
      && interp_list_equal (st_comp g) (st_pruned g))

let prop_limit_counts =
  qcheck ~count:200
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "pruned = naive: counts under ?limit"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let total_af = List.length (af_naive g) in
      let total_tot = List.length (tot_naive g) in
      List.length (af_pruned ~limit:k g) = min k total_af
      && List.length (af_naive ~limit:k g) = min k total_af
      && List.length (tot_pruned ~limit:k g) = min k total_tot
      && List.length (tot_naive ~limit:k g) = min k total_tot)

let take k l = List.filteri (fun i _ -> i < k) l

let prop_limit_prefix =
  qcheck ~count:150
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "?limit:k is the first k of each engine's own enumeration"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let prefix_of enum =
        let full = enum ?limit:None g in
        let limited = enum ?limit:(Some k) g in
        List.length limited = min k (List.length full)
        && List.for_all2 Interp.equal limited (take (List.length limited) full)
      in
      prefix_of (fun ?limit g -> af_pruned ?limit g)
      && prefix_of (fun ?limit g -> af_naive ?limit g)
      && prefix_of (fun ?limit g -> af_comp ?limit g)
      && prefix_of (fun ?limit g -> tot_pruned ?limit g)
      && prefix_of (fun ?limit g -> tot_naive ?limit g)
      && prefix_of (fun ?limit g -> tot_comp ?limit g))

let prop_stable_limit_consistent =
  qcheck ~count:100
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "stable ?limit = maximal of the same engine's limited enumeration"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      interp_set_equal (st_pruned ~limit:k g)
        (S.Naive.maximal (af_pruned ~limit:k g))
      && interp_set_equal (st_naive ~limit:k g)
           (S.Naive.maximal (af_naive ~limit:k g)))

(* The production engines filter maximality on code arrays
   ([Gop.Values.maximal]); the interpretation-level filter kept as the
   oracle must select the same models in the same order, from the same
   engine's enumeration, limited or not. *)
let prop_code_maximal =
  qcheck
    ~count:(iters "code-maximal" 300)
    ~print:(fun (p, k) -> Printf.sprintf "%s limit=%d" (print_program p) k)
    "code-level stable filter = interpretation-level maximal, in order"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* k = int_bound 4 in
      return (p, k))
    (fun (p, k) ->
      let g = gop_of p in
      let agrees af st =
        interp_list_equal (st ?limit:None g) (S.Naive.maximal (af ?limit:None g))
        && interp_list_equal (st ?limit:(Some k) g)
             (S.Naive.maximal (af ?limit:(Some k) g))
      in
      agrees (fun ?limit g -> af_pruned ?limit g)
        (fun ?limit g -> st_pruned ?limit g)
      && agrees (fun ?limit g -> af_comp ?limit g)
           (fun ?limit g -> st_comp ?limit g))

(* The same agreement on arbitrary lists of assignments, not only on the
   enumerations' leaves (which always share the least model, so every
   atom defined in the first leaf is defined alike in all of them). *)
let prop_code_maximal_any =
  qcheck
    ~count:(iters "code-maximal-any" 300)
    ~print:(fun (p, codes) ->
      Printf.sprintf "%s codes=[%s]" (print_program p)
        (String.concat "|"
           (List.map
              (fun c -> String.concat ";" (List.map string_of_int c))
              codes)))
    "code-level maximal = interpretation-level maximal on any list"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* codes =
        list_size (int_range 0 8) (list_size (int_range 1 6) (int_bound 2))
      in
      return (p, codes))
    (fun (p, codes) ->
      let g = gop_of p in
      let n = Ordered.Gop.n_atoms g in
      let assignment c =
        let c = Array.of_list c in
        Ordered.Gop.Values.of_codes
          (Array.init n (fun a -> c.(a mod Array.length c)))
      in
      let vs = List.map assignment codes in
      let interps = List.map (Ordered.Gop.Values.to_interp g) in
      interp_list_equal
        (interps (Ordered.Gop.Values.maximal vs))
        (S.Naive.maximal (interps vs)))

(* The search leaves use the short-circuiting [Model.is_model_v]; it must
   agree with the message-building check behind [Model.violations].
   Assignments are random codes, once as they come and once laid over the
   least model's undefined atoms (so that models turn up as well). *)
let prop_leaf_check =
  qcheck
    ~count:(iters "leaf-check" 400)
    ~print:(fun (p, codes) ->
      Printf.sprintf "%s codes=[%s]" (print_program p)
        (String.concat ";" (List.map string_of_int codes)))
    "boolean leaf check = no Definition 3 violations"
    Gen.(
      let* p = Test_props.gen_ordered 4 in
      let* codes = list_size (int_range 1 16) (int_bound 2) in
      return (p, codes))
    (fun (p, codes) ->
      let g = gop_of p in
      let codes = Array.of_list codes in
      let code a = codes.(a mod Array.length codes) in
      let n = Ordered.Gop.n_atoms g in
      let lfp = Ordered.Vfix.lfp g in
      let over = Ordered.Gop.Values.copy lfp in
      let random = Ordered.Gop.Values.create g in
      for a = 0 to n - 1 do
        if code a > 0 then begin
          Ordered.Gop.Values.set random a (code a = 1);
          if not (Ordered.Gop.Values.defined lfp a) then
            Ordered.Gop.Values.set over a (code a = 1)
        end
      done;
      let agrees v =
        Ordered.Model.is_model_v g v
        = (Ordered.Model.violations g (Ordered.Gop.Values.to_interp g v) = [])
      in
      agrees random && agrees over && agrees lfp)

let prop_pruned_sound =
  qcheck ~count:150 ~print:print_program
    "pruned search emits assumption-free models, least model first"
    (Test_props.gen_ordered 4)
    (fun p ->
      let g = gop_of p in
      match af_pruned g with
      | [] -> false (* the least model is always assumption-free *)
      | first :: _ as ms ->
        Interp.equal first (Ordered.Vfix.least_model g)
        && List.for_all (Ordered.Model.is_assumption_free g) ms)

(* Preference programs exercise the compiled kernel on the gops the
   preferred-model route actually searches: per-rule components, control
   atoms, deep component orders.  [Prefer.Compile.preferred_models] is
   the pruned stable search on [Prefer.Compile.gop], so the compiled
   kernel on the same gop must enumerate the same models. *)
let prop_compiled_prefer =
  qcheck
    ~count:(iters "compiled-prefer" 300)
    ~print:Test_diff_prefer.print_case
    "compiled = pruned on compiled preference programs"
    (Test_diff_prefer.gen_preferred 4)
    (fun case ->
      let c = Prefer.Compile.compile (Test_diff_prefer.spec_of case) in
      let g = Prefer.Compile.gop c in
      interp_list_equal (st_comp g) (st_pruned g)
      && interp_set_equal (st_comp g)
           (B.value (Prefer.Compile.preferred_models c)))

(* Golden leaves: each program's search reaches a leaf that exactly one
   condition rejects.  The kernel checks Definition 3(a) only on total
   leaves and only the enabled-rule closure on assumption-free ones —
   there (a) follows from the closure, and (b) from the kernel's
   propagation, which never reaches a (b)-violating leaf — while the
   naive oracles check every condition on every candidate.  Each case
   pins the compiled, pruned and naive answers and the leaf that only
   the one condition rejects. *)

let only_violation cond g m =
  match Ordered.Model.violations g m with
  | [ msg ] -> String.starts_with ~prefix:("condition (" ^ cond ^ ")") msg
  | _ -> false

let check_engines name expected ~comp ~pruned ~naive =
  Alcotest.(check (list testable_interp)) (name ^ ": compiled") expected comp;
  Alcotest.(check (list testable_interp)) (name ^ ": pruned") expected pruned;
  Alcotest.check testable_interp_set (name ^ ": naive") expected naive

(* (a), with the contradicting rule defeated but not overruled by an
   applied rule: [-p.] in [top] is defeated by [p.] in the incomparable
   [side], and its one overruler [p :- q.] is blocked when [q] is false.
   A check that counted every unblocked suppressor — the kernel's merged
   [act_sup] — would accept the leaves [{p, -q}] and [{-p, -q}]. *)
let test_golden_condition_a () =
  let g =
    ground_at
      (program
         "component top { -p. } component side { p. } \
          component bot extends top, side { p :- q. }")
      "bot"
  in
  let stats = Ordered.Counters.create () in
  check_engines "total models" [ interp [ "p"; "q" ] ]
    ~comp:(tot_comp ~stats g) ~pruned:(tot_pruned g) ~naive:(tot_naive g);
  Alcotest.(check (pair int int)) "kernel leaves, models" (3, 1)
    (stats.Ordered.Counters.leaves, stats.Ordered.Counters.models);
  Alcotest.(check bool) "{p, -q} fails (a) alone" true
    (only_violation "a" g (interp [ "p"; "-q" ]))

(* (b): after [p] and [-q] the rule [r :- p.] is applicable and
   unsuppressed while [r] is undefined.  Every literal of [{p, -q}] is
   derived by an enabled rule, so only (b) rejects it.  The naive oracle
   meets it as a candidate; the kernel's propagation derives [r] first. *)
let test_golden_condition_b () =
  let g =
    ground_at
      (program
         "component cwa { -q. } \
          component main extends cwa { p :- -q. q :- -p. r :- p. }")
      "main"
  in
  let m = interp [ "p"; "-q" ] in
  check_engines "assumption-free models"
    [ Interp.empty; interp [ "p"; "-q"; "r" ] ]
    ~comp:(af_comp g) ~pruned:(af_pruned g) ~naive:(af_naive g);
  Alcotest.(check bool) "{p, -q} fails (b) alone" true
    (only_violation "b" g m);
  Alcotest.(check bool) "{p, -q} is not assumption-free" false
    (Ordered.Model.is_assumption_free g m)

(* Assumption-freeness: the positive loop decided true is a model (no
   condition of Definition 3 fails) but no enabled rule grounds it, so
   only the closure rejects it and the least model [{}] is the one
   assumption-free model. *)
let test_golden_assumption_free () =
  let g = ground_at (program "component main { p :- q. q :- p. }") "main" in
  let stats = Ordered.Counters.create () in
  check_engines "assumption-free models" [ Interp.empty ]
    ~comp:(af_comp ~stats g) ~pruned:(af_pruned g) ~naive:(af_naive g);
  Alcotest.(check int) "kernel leaves" 2 stats.Ordered.Counters.leaves;
  let loop = interp [ "p"; "q" ] in
  Alcotest.(check bool) "{p, q} is a model" true
    (Ordered.Model.is_model g loop);
  Alcotest.(check bool) "{p, q} is not assumption-free" false
    (Ordered.Model.is_assumption_free g loop)

(* The empty program's one leaf is the empty assignment, and the kernel
   pads its arrays to one slot: the leaf check must count the program's
   atoms, not the slots, or it loses the least model [{}]. *)
let test_golden_empty () =
  let g = ground_at (program "component main { }") "main" in
  check_engines "assumption-free models" [ Interp.empty ] ~comp:(af_comp g)
    ~pruned:(af_pruned g) ~naive:(af_naive g);
  check_engines "stable models" [ Interp.empty ] ~comp:(st_comp g)
    ~pruned:(st_pruned g) ~naive:(st_naive g);
  check_engines "total models" [ Interp.empty ] ~comp:(tot_comp g)
    ~pruned:(tot_pruned g) ~naive:(tot_naive g)

let suite =
  [ Alcotest.test_case "golden leaf: only (a) rejects" `Quick
      test_golden_condition_a;
    Alcotest.test_case "golden leaf: only (b) rejects" `Quick
      test_golden_condition_b;
    Alcotest.test_case "golden leaf: a model, not assumption-free" `Quick
      test_golden_assumption_free;
    Alcotest.test_case "golden leaf: the empty program" `Quick
      test_golden_empty;
    prop_af_sets;
    prop_stable_sets;
    prop_total_sets;
    prop_compiled_lists;
    prop_compiled_nodes;
    prop_ov_sets;
    prop_limit_counts;
    prop_limit_prefix;
    prop_stable_limit_consistent;
    prop_code_maximal;
    prop_code_maximal_any;
    prop_leaf_check;
    prop_pruned_sound;
    prop_compiled_prefer
  ]
