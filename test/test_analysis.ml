(* The static-analysis engine's own test suite (see docs/ANALYSIS.md):

   - golden diagnostics: every fixture under fixtures/ is analyzed under a
     virtual path (the path decides which rules are in scope) and the
     rendered `file:line:col [rule-id]` lines must equal the checked-in
     .expected file.  Known-bad fixtures include the three evasions the
     old string scanner provably missed (module alias, let-module, local
     shadow undone by [open Stdlib]).
   - suppression: [@psmr.allow "rule-id"] in its three placements silences
     exactly that rule.
   - --json: the machine output parses and matches the documented schema.
   - engine behavior: parse errors are diagnostics, rule ids are unique.

   Regenerate goldens after an intentional output change with
   PSMR_FIXTURE_DUMP=1 (prints each fixture's actual output to stdout). *)

module A = Psmr_analysis
module Json = Psmr_util.Json

(* fixture file (relative to the test's cwd), virtual path it is analyzed
   under.  Files in _build are those declared in test/dune's deps. *)
let fixtures =
  [
    ("fixtures/bad_platform_bare.ml", "lib/sim/bad_platform_bare.ml");
    ("fixtures/bad_platform_qualified.ml", "lib/sim/bad_platform_qualified.ml");
    ("fixtures/bad_platform_alias.ml", "lib/sim/bad_platform_alias.ml");
    ("fixtures/bad_platform_letmodule.ml", "lib/sim/bad_platform_letmodule.ml");
    ( "fixtures/bad_platform_open_shadow.ml",
      "lib/sim/bad_platform_open_shadow.ml" );
    ( "fixtures/bad_platform_functor_arg.ml",
      "lib/sim/bad_platform_functor_arg.ml" );
    ("fixtures/bad_platform_sig.mli", "lib/sim/bad_platform_sig.mli");
    ("fixtures/bad_obs_evasion.ml", "lib/cos/bad_obs_evasion.ml");
    ("fixtures/bad_obs_replica.ml", "lib/replica/bad_obs_replica.ml");
    ("fixtures/bad_fault_evasion.ml", "lib/sched/bad_fault_evasion.ml");
    ("fixtures/bad_service_random.ml", "lib/app/bad_service_random.ml");
    ("fixtures/bad_service_indirect.ml", "lib/app/bad_service_indirect.ml");
    ("fixtures/bad_service_undo.ml", "lib/app/bad_service_undo.ml");
    ("fixtures/bad_service_scan.ml", "lib/app/bad_service_scan.ml");
    ("fixtures/bad_footprint.ml", "lib/app/bad_footprint.ml");
    ("fixtures/good_service.ml", "lib/app/good_service.ml");
    ("fixtures/suppressed.ml", "lib/cos/suppressed.ml");
  ]

let read path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let analyze_fixture (file, as_path) =
  A.Engine.analyze_source ~path:as_path (read file)

let rendered fx =
  String.concat ""
    (List.map (fun d -> A.Diagnostic.to_string d ^ "\n") (analyze_fixture fx))

let () =
  if Sys.getenv_opt "PSMR_FIXTURE_DUMP" <> None then begin
    List.iter
      (fun ((file, _) as fx) ->
        Printf.printf "### %s\n%s" file (rendered fx))
      fixtures;
    exit 0
  end

(* ---------- golden diagnostics ---------- *)

let test_golden ((file, _) as fx) () =
  let expected = read (file ^ ".expected") in
  Alcotest.(check string) (file ^ " diagnostics") expected (rendered fx)

(* ---------- the three old-scanner false negatives, asserted explicitly
   (independently of the golden text, so a rewording can't weaken them) *)

let test_evasions_caught () =
  List.iter
    (fun (file, as_path, rule) ->
      let diags = analyze_fixture (file, as_path) in
      Alcotest.(check bool)
        (file ^ " flagged by " ^ rule)
        true
        (List.exists (fun (d : A.Diagnostic.t) -> d.rule = rule) diags))
    [
      ("fixtures/bad_platform_alias.ml", "lib/sim/a.ml", "platform-primitives");
      ( "fixtures/bad_platform_letmodule.ml",
        "lib/sim/b.ml",
        "platform-primitives" );
      ( "fixtures/bad_platform_open_shadow.ml",
        "lib/sim/c.ml",
        "platform-primitives" );
    ]

(* ---------- suppression ---------- *)

let test_suppression () =
  Alcotest.(check int)
    "all diagnostics suppressed" 0
    (List.length (analyze_fixture ("fixtures/suppressed.ml", "lib/cos/s.ml")));
  (* the same constructs without the file-level allow ARE flagged: strip
     the floating attribute and re-analyze *)
  let src = read "fixtures/suppressed.ml" in
  let stripped =
    (* drop the floating-attribute line, keep everything else *)
    String.split_on_char '\n' src
    |> List.filter (fun l -> not (String.length l > 0 && l.[0] = '['))
    |> String.concat "\n"
  in
  let diags = A.Engine.analyze_source ~path:"lib/cos/s.ml" stripped in
  Alcotest.(check bool)
    "obs-facade fires without the floating allow" true
    (List.exists (fun (d : A.Diagnostic.t) -> d.rule = "obs-facade") diags)

(* ---------- --json schema ---------- *)

let test_json_schema () =
  let diags = analyze_fixture ("fixtures/bad_platform_bare.ml", "lib/sim/x.ml") in
  let out = A.Engine.render_json ~files:1 diags in
  match Json.parse out with
  | Error e -> Alcotest.failf "--json output does not parse: %s" e
  | Ok v ->
      let num field =
        match Option.bind (Json.member field v) Json.as_num with
        | Some n -> n
        | None -> Alcotest.failf "missing numeric field %S" field
      in
      Alcotest.(check (float 0.)) "version" 1. (num "version");
      Alcotest.(check (float 0.)) "files" 1. (num "files");
      let ds =
        match Option.bind (Json.member "diagnostics" v) Json.as_arr with
        | Some l -> l
        | None -> Alcotest.fail "missing diagnostics array"
      in
      Alcotest.(check int) "diagnostic count" (List.length diags)
        (List.length ds);
      List.iter
        (fun d ->
          List.iter
            (fun field ->
              if Option.bind (Json.member field d) Json.as_str = None then
                Alcotest.failf "diagnostic missing string field %S" field)
            [ "rule"; "path"; "message" ];
          List.iter
            (fun field ->
              if Option.bind (Json.member field d) Json.as_num = None then
                Alcotest.failf "diagnostic missing numeric field %S" field)
            [ "line"; "col" ])
        ds

(* ---------- engine behavior ---------- *)

let test_parse_error () =
  match A.Engine.analyze_source ~path:"lib/x.ml" "let let let" with
  | [ d ] -> Alcotest.(check string) "rule" "parse-error" d.rule
  | diags -> Alcotest.failf "expected 1 parse-error, got %d" (List.length diags)

let test_rule_ids_unique () =
  let ids = List.map (fun (r : A.Rule.t) -> r.id) A.Rules.all in
  Alcotest.(check int)
    "no duplicate rule ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_rule_scoping () =
  (* the obs facade rule is scoped to scheduling layers: the same source is
     flagged under lib/cos/ and clean under lib/harness/ *)
  let src = "let f () = Psmr_obs.Metrics.counter \"x\"\n" in
  let flagged p =
    List.exists
      (fun (d : A.Diagnostic.t) -> d.rule = "obs-facade")
      (A.Engine.analyze_source ~path:p src)
  in
  Alcotest.(check bool) "flagged in lib/cos" true (flagged "lib/cos/x.ml");
  Alcotest.(check bool)
    "clean in lib/harness" false
    (flagged "lib/harness/x.ml");
  (* rule-scoped exemption: real_platform.ml and .mli are exempt from the
     platform rule on either path separator *)
  let m = "let f x = Mutex.lock x\n" in
  let hits p = List.length (A.Engine.analyze_source ~path:p m) in
  Alcotest.(check int) "real_platform.ml exempt" 0
    (hits "lib/platform/real_platform.ml");
  Alcotest.(check int) "real_platform.mli-ish path exempt" 0
    (hits {|lib\platform\real_platform.ml|});
  Alcotest.(check bool) "other files not exempt" true (hits "lib/sim/y.ml" > 0)

(* the lib/sim extension of the platform rule: any resolved Domain or Unix
   reference inside the simulator is flagged, except in the sanctioned
   grid-runner module; outside lib/sim, Domain and non-wall-clock Unix
   calls remain in scope for the other rules only *)
let test_sim_domain_scoping () =
  let flagged p src =
    List.exists
      (fun (d : A.Diagnostic.t) -> d.rule = "platform-primitives")
      (A.Engine.analyze_source ~path:p src)
  in
  let domain_src = "let f () = Domain.spawn (fun () -> ())\n" in
  let unix_src = "let f () = Unix.getpid ()\n" in
  let wall_src = "let f () = Unix.gettimeofday ()\n" in
  Alcotest.(check bool)
    "Domain flagged in lib/sim" true
    (flagged "lib/sim/engine2.ml" domain_src);
  Alcotest.(check bool)
    "Unix (non-wall-clock) flagged in lib/sim" true
    (flagged "lib/sim/engine2.ml" unix_src);
  Alcotest.(check bool)
    "grid_runner.ml exempt from the sim ban" false
    (flagged "lib/sim/grid_runner.ml" domain_src);
  Alcotest.(check bool)
    "grid_runner.mli exempt from the sim ban" false
    (flagged "lib/sim/grid_runner.mli" domain_src);
  Alcotest.(check bool)
    "Domain not flagged outside lib/sim" false
    (flagged "lib/harness/x.ml" domain_src);
  Alcotest.(check bool)
    "non-wall-clock Unix not flagged outside lib/sim" false
    (flagged "lib/harness/x.ml" unix_src);
  Alcotest.(check bool)
    "wall clock still flagged everywhere" true
    (flagged "lib/harness/x.ml" wall_src)

let () =
  Alcotest.run "analysis"
    [
      ( "golden",
        List.map
          (fun ((file, _) as fx) ->
            Alcotest.test_case file `Quick (test_golden fx))
          fixtures );
      ( "evasions",
        [ Alcotest.test_case "old-scanner false negatives" `Quick
            test_evasions_caught ] );
      ("suppression", [ Alcotest.test_case "psmr.allow" `Quick test_suppression ]);
      ("json", [ Alcotest.test_case "schema" `Quick test_json_schema ]);
      ( "engine",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule ids unique" `Quick test_rule_ids_unique;
          Alcotest.test_case "rule scoping + exemptions" `Quick
            test_rule_scoping;
          Alcotest.test_case "lib/sim Domain/Unix ban" `Quick
            test_sim_domain_scoping;
        ] );
    ]
