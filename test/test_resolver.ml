open Exsec_core

let check = Alcotest.(check bool)

let hierarchy = Level.hierarchy [ "hi"; "lo" ]
let universe = Category.universe [ "c" ]
let bottom = Security_class.bottom hierarchy universe
let high = Security_class.top hierarchy universe
let admin = Principal.individual "admin"
let alice = Principal.individual "alice"
let bob = Principal.individual "bob"

let world_listable owner klass =
  Meta.make ~owner
    ~acl:
      (Acl.of_entries
         [
           Acl.allow_all (Acl.Individual owner);
           Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read; Access_mode.Write ];
         ])
    klass

let setup () =
  let db = Principal.Db.create () in
  List.iter (Principal.Db.add_individual db) [ admin; alice; bob ];
  let monitor = Reference_monitor.create db in
  let ns = Namespace.create ~root_meta:(world_listable admin bottom) () in
  let r = Resolver.create monitor ns in
  db, monitor, ns, r

let alice_low () = Subject.make alice bottom
let alice_high () = Subject.make alice high

let ok label = function
  | Ok value -> value
  | Error e -> Alcotest.failf "%s: %s" label (Format.asprintf "%a" Resolver.pp_denial e)

let test_create_and_resolve () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let _ =
    ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/a") ~meta:(world_listable alice bottom))
  in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/a/x")
         ~meta:(world_listable alice bottom) 7)
  in
  let node = ok "resolve" (Resolver.resolve r ~subject ~mode:Access_mode.Read (Path.of_string "/a/x")) in
  check "payload" true (Namespace.payload node = Some 7)

let test_list_required_on_path () =
  let _, _, _, r = setup () in
  let admin_subject = Subject.make ~trusted:true admin high in
  (* A directory alice cannot even look into. *)
  let hidden = Meta.make ~owner:admin bottom in
  let _ = ok "hidden dir" (Resolver.create_dir r ~subject:admin_subject (Path.of_string "/secret") ~meta:hidden) in
  let _ =
    ok "inner leaf"
      (Resolver.create_leaf r ~subject:admin_subject (Path.of_string "/secret/x")
         ~meta:(world_listable admin bottom) 1)
  in
  (* Even though the leaf itself is world-readable, the path is
     blocked at /secret. *)
  match Resolver.resolve r ~subject:(alice_low ()) ~mode:Access_mode.Read (Path.of_string "/secret/x") with
  | Error (Resolver.Denied { at; mode = Access_mode.List; _ }) ->
    Alcotest.(check string) "blocked at /secret" "/secret" (Path.to_string at)
  | Ok _ -> Alcotest.fail "hidden path traversed"
  | Error other -> Alcotest.failf "unexpected: %s" (Format.asprintf "%a" Resolver.pp_denial other)

let test_target_mode_checked () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/x")
         ~meta:(Meta.make ~owner:alice ~acl:(Acl.of_entries
             [ Acl.allow_all (Acl.Individual alice); Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ]) bottom) 1)
  in
  let _ = ok "read ok" (Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x")) in
  match Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Write (Path.of_string "/x") with
  | Error (Resolver.Denied { mode = Access_mode.Write; _ }) -> ()
  | _ -> Alcotest.fail "write should be denied"

let test_lookup_skips_target_check () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let closed = Meta.make ~owner:alice bottom in
  let _ = ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/x") ~meta:closed 1) in
  (* bob cannot read /x but can still look it up (ancestors are
     listable). *)
  let _ = ok "lookup" (Resolver.lookup r ~subject:bob_subject (Path.of_string "/x")) in
  ()

let test_list_dir () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let _ = ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/d") ~meta:(world_listable alice bottom)) in
  let _ = ok "l1" (Resolver.create_leaf r ~subject (Path.of_string "/d/one") ~meta:(world_listable alice bottom) 1) in
  let _ = ok "l2" (Resolver.create_leaf r ~subject (Path.of_string "/d/two") ~meta:(world_listable alice bottom) 2) in
  let names = ok "list" (Resolver.list_dir r ~subject (Path.of_string "/d")) in
  Alcotest.(check (list string)) "names" [ "one"; "two" ] names;
  match Resolver.list_dir r ~subject (Path.of_string "/d/one") with
  | Error (Resolver.Name_error (Namespace.Not_a_directory _)) -> ()
  | _ -> Alcotest.fail "listing a leaf should fail"

let test_create_requires_parent_write () =
  let _, _, _, r = setup () in
  let admin_subject = Subject.make ~trusted:true admin high in
  let read_only =
    Meta.make ~owner:admin
      ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual admin); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      bottom
  in
  let _ = ok "ro dir" (Resolver.create_dir r ~subject:admin_subject (Path.of_string "/ro") ~meta:read_only) in
  match
    Resolver.create_leaf r ~subject:(alice_low ()) (Path.of_string "/ro/x")
      ~meta:(world_listable alice bottom) 1
  with
  | Error (Resolver.Denied { mode = Access_mode.Write; _ }) -> ()
  | _ -> Alcotest.fail "create in read-only dir should fail"

let test_attach_mac_rule () =
  let _, _, _, r = setup () in
  (* A high subject cannot create a low-classified child (write-down),
     but can create a high one. *)
  let subject = alice_high () in
  (match
     Resolver.create_leaf r ~subject (Path.of_string "/low-child")
       ~meta:(world_listable alice bottom) 1
   with
  | Error (Resolver.Denied { denial = Decision.Mac_denied Mac.Write_down; _ }) -> ()
  | _ -> Alcotest.fail "high subject created low child");
  let _ =
    ok "high child"
      (Resolver.create_leaf r ~subject (Path.of_string "/high-child")
         ~meta:(world_listable alice high) 1)
  in
  ()

let test_remove_requires_delete () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf"
      (Resolver.create_leaf r ~subject (Path.of_string "/x")
         ~meta:(Meta.make ~owner:alice ~acl:(Acl.of_entries
             [ Acl.allow_all (Acl.Individual alice); Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Read ] ]) bottom) 1)
  in
  (match Resolver.remove r ~subject:bob_subject (Path.of_string "/x") with
  | Error (Resolver.Denied { mode = Access_mode.Delete; _ }) -> ()
  | _ -> Alcotest.fail "bob deleted alice's leaf");
  let () = ok "owner removes" (Resolver.remove r ~subject (Path.of_string "/x")) in
  check "gone" false (Namespace.mem (Resolver.namespace r) (Path.of_string "/x"))

let test_set_acl_via_resolver () =
  let _, _, _, r = setup () in
  let subject = alice_low () in
  let bob_subject = Subject.make bob bottom in
  let _ =
    ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/x") ~meta:(Meta.make ~owner:alice bottom) 1)
  in
  (* bob can't read yet. *)
  (match Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bob read before grant");
  let () =
    ok "grant"
      (Resolver.set_acl r ~subject (Path.of_string "/x")
         (Acl.of_entries
            [ Acl.allow_all (Acl.Individual alice); Acl.allow (Acl.Individual bob) [ Access_mode.Read ] ]))
  in
  let _ = ok "bob reads" (Resolver.resolve r ~subject:bob_subject ~mode:Access_mode.Read (Path.of_string "/x")) in
  (* bob cannot administrate. *)
  match Resolver.set_acl r ~subject:bob_subject (Path.of_string "/x") Acl.empty with
  | Error (Resolver.Denied { mode = Access_mode.Administrate; _ }) -> ()
  | _ -> Alcotest.fail "bob administrated"

let test_denials_audited () =
  let _, monitor, _, r = setup () in
  let before = Audit.denied_total (Reference_monitor.audit monitor) in
  (match Resolver.resolve r ~subject:(Subject.make bob bottom) ~mode:Access_mode.Write (Path.of_string "/nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resolved nonsense");
  let after = Audit.denied_total (Reference_monitor.audit monitor) in
  (* /nope does not exist: only the (granted) List on the root was
     checked, so no denial — verify grants recorded instead. *)
  check "no denial for missing name" true (after = before);
  check "grants recorded" true (Audit.granted_total (Reference_monitor.audit monitor) > 0)

(* Regression for the walk-twice [remove]: deleting /a/b used to walk
   to the parent and then re-resolve the whole target from the root,
   auditing List on the root twice (5 events).  The single-walk shape
   checks each ancestor exactly once: List on the root, List on /a,
   Delete on the victim, and the attach (Write) check on the parent. *)
let test_remove_single_walk_audit () =
  let _, monitor, _, r = setup () in
  let subject = alice_low () in
  let meta = world_listable alice bottom in
  let _ = ok "dir" (Resolver.create_dir r ~subject (Path.of_string "/a") ~meta) in
  let _ = ok "leaf" (Resolver.create_leaf r ~subject (Path.of_string "/a/b") ~meta 1) in
  let audit = Reference_monitor.audit monitor in
  let before = List.length (Audit.events audit) in
  let () = ok "remove" (Resolver.remove r ~subject (Path.of_string "/a/b")) in
  let after = List.length (Audit.events audit) in
  Alcotest.(check int) "remove of /a/b audits exactly four checks" 4 (after - before)

let suite =
  [
    Alcotest.test_case "create and resolve" `Quick test_create_and_resolve;
    Alcotest.test_case "list required on path" `Quick test_list_required_on_path;
    Alcotest.test_case "target mode checked" `Quick test_target_mode_checked;
    Alcotest.test_case "lookup skips target check" `Quick test_lookup_skips_target_check;
    Alcotest.test_case "list_dir" `Quick test_list_dir;
    Alcotest.test_case "create needs parent write" `Quick test_create_requires_parent_write;
    Alcotest.test_case "attach MAC rule" `Quick test_attach_mac_rule;
    Alcotest.test_case "remove needs delete" `Quick test_remove_requires_delete;
    Alcotest.test_case "remove audits a single walk" `Quick test_remove_single_walk_audit;
    Alcotest.test_case "set_acl" `Quick test_set_acl_via_resolver;
    Alcotest.test_case "audit trail" `Quick test_denials_audited;
  ]

(* Oracle property: on a random tree with random per-node List grants
   and per-leaf Read grants, [resolve] must grant exactly when every
   strict ancestor allows List and the leaf allows Read.  Classes are
   uniform so only DAC decides. *)
let prop_resolver_matches_oracle =
  let arb =
    QCheck.make
      QCheck.Gen.(
        (* (listable per interior node choices, readable per leaf) as
           bit sources, with a fixed shape: root -> 3 dirs -> 3 leaves. *)
        pair (list_size (return 3) bool) (list_size (return 9) bool))
  in
  QCheck.Test.make ~name:"resolve agrees with the DAC oracle" ~count:200 arb
    (fun (dir_listable, leaf_readable) ->
      let db = Principal.Db.create () in
      let owner = Principal.individual "owner" in
      let user = Principal.individual "user" in
      Principal.Db.add_individual db owner;
      Principal.Db.add_individual db user;
      let monitor = Reference_monitor.create db in
      let root_meta = world_listable owner bottom in
      let ns = Namespace.create ~root_meta () in
      let r = Resolver.create monitor ns in
      let meta_with ~listable ~readable =
        let world =
          List.concat
            [
              (if listable then [ Access_mode.List ] else []);
              (if readable then [ Access_mode.Read ] else []);
            ]
        in
        Meta.make ~owner
          ~acl:(Acl.of_entries [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone world ])
          bottom
      in
      let subject = Subject.make user bottom in
      let expectations = ref [] in
      List.iteri
        (fun d listable ->
          let dir = Path.of_string (Printf.sprintf "/d%d" d) in
          (match Namespace.add_dir ns dir ~meta:(meta_with ~listable ~readable:false) with
          | Ok _ -> ()
          | Error _ -> ());
          List.iteri
            (fun l readable ->
              if l / 3 = d then begin
                let leaf = Path.child dir (Printf.sprintf "x%d" l) in
                (match Namespace.add_leaf ns leaf ~meta:(meta_with ~listable:false ~readable) 0 with
                | Ok _ -> ()
                | Error _ -> ());
                expectations := (leaf, listable && readable) :: !expectations
              end)
            leaf_readable)
        dir_listable;
      List.for_all
        (fun (leaf, expected) ->
          let got =
            match Resolver.resolve r ~subject ~mode:Access_mode.Read leaf with
            | Ok _ -> true
            | Error _ -> false
          in
          Bool.equal got expected)
        !expectations)

(* The four walkers take one child step, so under a policy that grants
   everything they must agree on every path: the same node, or the same
   name error.  Random trees over a three-letter alphabet produce
   missing names, paths running through a leaf, and removals of absent
   or non-empty entries.  Removal runs on twin trees built from the
   same inserts — [Resolver.remove] on one, [Namespace.remove] on the
   other — and the outcomes must match step for step. *)
let prop_walkers_agree =
  let segs = QCheck.Gen.(list_size (int_range 0 4) (map (String.make 1) (char_range 'a' 'c'))) in
  let arb =
    QCheck.make
      QCheck.Gen.(pair (list_size (int_range 0 25) (pair segs bool)) (list_size (int_range 1 30) segs))
  in
  let build inserts =
    let ns = Namespace.create ~root_meta:(world_listable admin bottom) () in
    List.iter
      (fun (segments, leaf) ->
        let path = Path.of_segments segments in
        let meta = world_listable admin bottom in
        ignore
          (if leaf then Namespace.add_leaf ns path ~meta 0
           else Namespace.add_dir ns path ~meta))
      inserts;
    ns
  in
  let name_error = function
    | Error (Resolver.Name_error e) -> Some e
    | Ok _ | Error (Resolver.Denied _) -> None
  in
  let same_error a b =
    match a, b with
    | Namespace.Not_found p, Namespace.Not_found q
    | Namespace.Not_a_directory p, Namespace.Not_a_directory q
    | Namespace.Directory_not_empty p, Namespace.Directory_not_empty q ->
      Path.equal p q
    | _ -> false
  in
  QCheck.Test.make ~name:"resolve, remove, find and chain take one step" ~count:300 arb
    (fun (inserts, queries) ->
      let db = Principal.Db.create () in
      let monitor = Reference_monitor.create ~policy:Policy.unchecked db in
      let ns = build inserts in
      let twin = build inserts in
      let r = Resolver.create monitor ns in
      let subject = alice_low () in
      List.for_all
        (fun segments ->
          let path = Path.of_segments segments in
          let found = Namespace.find ns path in
          let lookups_agree =
            match
              found, Namespace.chain ns path,
              Resolver.resolve r ~subject ~mode:Access_mode.Read path
            with
            | Ok node, Some nodes, Ok resolved ->
              node == resolved && node == List.nth nodes (List.length nodes - 1)
            | Error e, None, resolved -> (
              match name_error resolved with
              | Some e' -> same_error e e'
              | None -> false)
            | _ -> false
          in
          let removals_agree =
            Path.is_root path
            ||
            match Resolver.remove r ~subject path, Namespace.remove twin path with
            | Ok (), Ok () -> true
            | resolver_result, Error e -> (
              match name_error resolver_result with
              | Some e' -> same_error e e'
              | None -> false)
            | Error _, Ok () -> false
          in
          lookups_agree && removals_agree)
        queries)

let suite =
  suite @ [ QCheck_alcotest.to_alcotest prop_resolver_matches_oracle;
            QCheck_alcotest.to_alcotest prop_walkers_agree ]
