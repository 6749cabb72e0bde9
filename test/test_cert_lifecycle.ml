(* The certificate lifecycle (Exsec_analysis.Certificate +
   Kernel lifecycle surface): scoped invalidation, profiles, expiry
   epochs, delegation chains and CRL-style revocation — plus the two
   revocation-soundness regressions this PR fixes:

   - Kernel.revoke_certificate used to remove the certificate but
     leave the capability handles pre-minted from its chain proofs
     open, so a revoked certificate kept granting through call_handle
     until unrelated generation drift;
   - Verdict.all [] folds to Always_allow, so a certificate issued
     under an empty clearance registry used to mark every import
     vacuously Always_allow and count as fully certified with zero
     covers.

   The differential oracle drives twin kernels over one shared
   principal database and clearance registry.  The lifecycle side
   holds scoped, profiled, expiring and delegated certificates; the
   full side has every certificate revoked, so each of its calls goes
   through the full reference monitor.  Probes must agree structurally
   under lockstep churn — ACL edits, membership changes in covered and
   uncovered groups, policy bumps, relabels, expiry sweeps, CRL
   revocations, re-certification — and every denial on the lifecycle
   side must land a denied audit record. *)

open Exsec_core
open Exsec_extsys
module Metrics = Exsec_obs.Metrics
module Verdict = Exsec_analysis.Verdict
module Certificate = Exsec_analysis.Certificate

let check = Alcotest.(check bool)

let counter name =
  let snap = Metrics.snapshot () in
  match List.assoc_opt name snap.Metrics.counters with Some v -> v | None -> 0

(* {1 The lifecycle world}

   store (/svc/get) is gated through a group entry — allow staff
   {List, Execute} — so certificates proved against it record a scoped
   dependency on staff's member-edge closure (staff contains the
   nested group eng).  visitors exists outside every proof's
   dependency set: churn on it must revoke nothing. *)

let store = Path.of_string "/svc/get"
let fetch = Path.of_string "/ext/relay/fetch"

type world = {
  kernel : Kernel.t;
  db : Principal.Db.t;
  registry : Clearance.t;
  admin : Principal.individual;
  alice : Principal.individual;
  bob : Principal.individual;
  staff : Principal.group;
  eng : Principal.group;
  visitors : Principal.group;
  alice_sub : Subject.t;
  relay : Linker.Linked.t;
  front : Linker.Linked.t;
}

let build_world ?front_profile () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  let alice = Principal.individual "alice" in
  let bob = Principal.individual "bob" in
  let staff = Principal.group "staff" in
  let eng = Principal.group "eng" in
  let visitors = Principal.group "visitors" in
  Principal.Db.add_individual db admin;
  Principal.Db.add_member db eng (Principal.Ind alice);
  Principal.Db.add_member db staff (Principal.Grp eng);
  Principal.Db.add_member db staff (Principal.Ind bob);
  Principal.Db.add_group db visitors;
  let hierarchy = Level.hierarchy [ "hi"; "lo" ] in
  let universe = Category.universe [] in
  let bottom = Security_class.bottom hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin (Security_class.top hierarchy universe);
  Clearance.register registry alice bottom;
  Clearance.register registry bob bottom;
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  let meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group staff) [ Access_mode.List; Access_mode.Execute ];
           ])
      bottom
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "setup get: %s" (Service.error_to_string e));
  let alice_sub = Subject.make alice bottom in
  let link ?profile ext =
    match Linker.link ?profile kernel ~subject:alice_sub ext with
    | Ok linked -> linked
    | Error e -> Alcotest.failf "link: %a" Linker.pp_link_error e
  in
  let relay =
    link
      (Extension.make ~name:"relay" ~author:alice ~imports:[ store ]
         ~provides:
           [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
         ())
  in
  let front =
    link ?profile:front_profile
      (Extension.make ~name:"front" ~author:alice ~imports:[ fetch ] ())
  in
  {
    kernel; db; registry; admin; alice; bob; staff; eng; visitors; alice_sub; relay;
    front;
  }

(* {1 Regression: revoke_certificate closes certificate-minted handles} *)

let test_revoke_closes_handles () =
  Metrics.set_enabled true;
  let w = build_world () in
  (* front's certificate covers /svc/get transitively, so this mint
     goes through the certificate-admitted path. *)
  let mints0 = counter "handle.cert_mints" in
  let handle =
    match Kernel.open_handle w.kernel ~subject:w.alice_sub ~caller:"front" store with
    | Ok handle -> handle
    | Error e -> Alcotest.failf "open_handle: %s" (Service.error_to_string e)
  in
  check "minted via the certificate" true (counter "handle.cert_mints" > mints0);
  check "handle serves before revocation" true
    (Kernel.call_handle w.kernel handle [] = Ok (Value.int 7));
  (* An unrelated caller's handle to the same target, minted through
     the fully checked path, must survive the revocation. *)
  let other =
    match Kernel.open_handle w.kernel ~subject:w.alice_sub ~caller:"bystander" store with
    | Ok handle -> handle
    | Error e -> Alcotest.failf "open_handle bystander: %s" (Service.error_to_string e)
  in
  Kernel.revoke_certificate w.kernel "front";
  check "certificate gone" true (Kernel.certificate_of w.kernel "front" = None);
  (* The regression: the pre-minted handle must fail closed with zero
     grants, immediately — not at the next unrelated generation
     drift. *)
  let hits0 = counter "handle.hits" in
  (match Kernel.call_handle w.kernel handle [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "revoked certificate still grants through its handle"
  | Error e -> Alcotest.failf "unexpected error: %s" (Service.error_to_string e));
  check "zero grants through the revoked handle" true (counter "handle.hits" = hits0);
  check "unrelated caller's checked handle survives" true
    (Kernel.call_handle w.kernel other [] = Ok (Value.int 7));
  (* The chain table's pre-minted handle dies with the certificate
     too (satellite regression: it used to keep granting). *)
  (match Linker.Linked.call_chain w.front store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "revoked chain handle still grants"
  | Error e -> Alcotest.failf "chain handle: %s" (Service.error_to_string e))

(* {1 One source of truth for an extension's certificate}

   Linked.certificate reads the kernel table: a revoked, expired or
   CRL-dropped certificate is gone from the linked view too. *)

let test_linked_certificate_is_the_kernels () =
  let w = build_world () in
  check "linked view is the table's entry" true
    (match Linker.Linked.certificate w.front, Kernel.certificate_of w.kernel "front" with
    | Some linked, Some held -> linked == held
    | _ -> false);
  Kernel.revoke_certificate w.kernel "front";
  check "None after revoke_certificate" true (Linker.Linked.certificate w.front = None);
  check "relay unaffected" true (Linker.Linked.certificate w.relay <> None);
  ignore (Kernel.revoke_by_principal w.kernel w.bob);
  check "None after CRL revocation" true (Linker.Linked.certificate w.relay = None)

(* {1 Regression: empty registry certifies nothing} *)

let test_empty_registry_proves_nothing () =
  let w = build_world () in
  let empty = Clearance.create () in
  let certificate =
    Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:empty
      ~namespace:(Kernel.namespace w.kernel) ~extension:"hollow" ~imports:[ store ] ()
  in
  check "zero covers" true (certificate.Certificate.covers = []);
  (* The regression: Verdict.all [] is Always_allow, so these proofs
     used to come out vacuously certified. *)
  check "proofs are Depends, not vacuous Always_allow" true
    (List.for_all
       (fun (proof : Certificate.import_proof) ->
         Verdict.equal proof.Certificate.verdict Verdict.Depends)
       certificate.Certificate.proofs);
  check "not fully certified" false (Certificate.fully_certified certificate);
  check "admits nothing" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel) ~subject:w.alice_sub store)

(* {1 Scoped invalidation} *)

let test_scoped_survival () =
  Metrics.set_enabled true;
  let w = build_world () in
  let audit_total () = Audit.total (Reference_monitor.audit (Kernel.monitor w.kernel)) in
  check "certified before churn" true
    (Kernel.certificate_admits w.kernel ~caller:"front" ~subject:w.alice_sub fetch);
  let generation0 = Principal.Db.generation w.db in
  (* >= 10^3 batched edits to principals outside the proof's group
     closure: guests join and leave visitors, a group no consulted ACL
     names. *)
  for batch = 0 to 3 do
    Kernel.batch_principals w.kernel (fun () ->
        for i = 0 to 249 do
          Principal.Db.add_member w.db w.visitors
            (Principal.Ind (Principal.individual (Printf.sprintf "guest-%d-%d" batch i)))
        done)
  done;
  check "the generation moved (old scheme would revoke)" true
    (Principal.Db.generation w.db > generation0);
  (* admits still accepts, and certified calls cause zero re-proofs:
     no audit record, every call through the certificate fast path. *)
  let audit0 = audit_total () in
  let fast0 = counter "kernel.cert_fast_path" in
  for _ = 1 to 10 do
    check "certified call survives unrelated churn" true
      (Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []
      = Ok (Value.int 7))
  done;
  check "zero re-proofs (no audited decisions)" true (audit_total () = audit0);
  check "all ten calls on the certificate fast path" true
    (counter "kernel.cert_fast_path" = fast0 + 10);
  (* An edit inside the closure — the nested group eng, reachable from
     the ACL-named staff — fails closed. *)
  Principal.Db.remove_member w.db w.eng (Principal.Ind w.alice);
  check "nested-group edit revokes" false
    (Kernel.certificate_admits w.kernel ~caller:"front" ~subject:w.alice_sub fetch);
  (* The call still serves (alice keeps access through... no — alice
     left staff's closure, so the checked path now denies Execute on
     the staff-gated store; either way the answer comes from the
     monitor, audited). *)
  let denied0 = Audit.denied_total (Reference_monitor.audit (Kernel.monitor w.kernel)) in
  (match Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "stale certificate granted after covered edit"
  | Error e -> Alcotest.failf "unexpected: %s" (Service.error_to_string e));
  check "the denial is audited (checked path)" true
    (Audit.denied_total (Reference_monitor.audit (Kernel.monitor w.kernel)) > denied0)

let test_born_stale_under_batch () =
  let w = build_world () in
  (* A certificate issued while a batch mutates its own dependency set
     records a dirty stamp above the published generation: it must
     never admit, before or after the batch lands. *)
  let certificate =
    Kernel.batch_principals w.kernel (fun () ->
        Principal.Db.add_member w.db w.staff
          (Principal.Ind (Principal.individual "newhire"));
        Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
          ~namespace:(Kernel.namespace w.kernel) ~extension:"racer" ~imports:[ store ]
          ())
  in
  check "born-stale certificate never admits" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel) ~subject:w.alice_sub store)

(* {1 Profiles} *)

let test_profile_enforcement () =
  (* A prefix that excludes /svc: the transitive store proof must come
     out Depends, so the certificate is not fully certified and the
     call falls back to the checked path. *)
  let w =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"ext-only"
           ~prefixes:[ Path.of_string "/ext" ] ())
      ()
  in
  let certificate = Option.get (Linker.Linked.certificate w.front) in
  check "import inside the prefix certifies" true
    (match Certificate.verdict_for certificate fetch with
    | Some verdict -> Verdict.equal verdict Verdict.Always_allow
    | None -> false);
  check "import outside the prefix proves Depends" true
    (match Certificate.verdict_for certificate store with
    | Some verdict -> Verdict.equal verdict Verdict.Depends
    | None -> false);
  check "not fully certified under the narrow profile" false
    (Certificate.fully_certified certificate);
  check "no chain handle outside the profile" true
    (Linker.Linked.chain_handle w.front store = None);
  (* The call itself still works — through the monitor. *)
  check "checked path still serves" true
    (Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []
    = Ok (Value.int 7));
  (* A profile without Execute certifies nothing at all. *)
  let w2 =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"listing" ~modes:[ Access_mode.List ] ())
      ()
  in
  let certificate2 = Option.get (Linker.Linked.certificate w2.front) in
  check "no Execute in the profile: nothing certifies" true
    (List.for_all
       (fun (proof : Certificate.import_proof) ->
         Verdict.equal proof.Certificate.verdict Verdict.Depends)
       certificate2.Certificate.proofs)

(* {1 Expiry} *)

let test_expiry () =
  let w =
    build_world
      ~front_profile:(Certificate.make_profile ~name:"short" ~validity:2 ())
      ()
  in
  let certificate = Option.get (Linker.Linked.certificate w.front) in
  check "horizon recorded" true (certificate.Certificate.expires_at = Some 2);
  (* Lazy expiry: admits itself refuses at the horizon, sweep or no
     sweep — and the default now fails closed for expiring certs. *)
  check "admits inside the horizon" true
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel) ~subject:w.alice_sub ~now:1 fetch);
  check "admits refuses at the horizon (lazy)" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel) ~subject:w.alice_sub ~now:2 fetch);
  check "epoch-ignorant callers fail closed" false
    (Certificate.admits certificate ~monitor:(Kernel.monitor w.kernel) ~subject:w.alice_sub fetch);
  (* Eager sweep at the horizon: table entry reclaimed, chain handle
     closed, the call falls back to the checked path. *)
  check "chain call serves before expiry" true
    (Linker.Linked.call_chain w.front store [] = Ok (Value.int 7));
  check "first tick: still alive" true
    (Kernel.advance_cert_epoch w.kernel = 1
    && Kernel.certificate_of w.kernel "front" <> None);
  check "second tick sweeps" true
    (Kernel.advance_cert_epoch w.kernel = 2
    && Kernel.certificate_of w.kernel "front" = None);
  (match Linker.Linked.call_chain w.front store [] with
  | Error (Service.Denied _) -> ()
  | Ok _ -> Alcotest.fail "expired certificate still grants through its chain handle"
  | Error e -> Alcotest.failf "chain handle: %s" (Service.error_to_string e));
  check "checked path still serves after expiry" true
    (Kernel.call w.kernel ~subject:w.alice_sub ~caller:"front" store []
    = Ok (Value.int 7))

(* {1 Delegation} *)

let test_delegation () =
  let w =
    build_world
      ~front_profile:
        (Certificate.make_profile ~name:"deleg" ~max_depth:2 ~validity:8 ())
      ()
  in
  let bottom = Subject.effective_class w.alice_sub in
  (* The child's cover is the meet of the parent's proof and the cap:
     authority only narrows. *)
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front" ~cap:bottom
       ~extension:"front/worker" ~imports:[ store ] ()
   with
  | Error e -> Alcotest.failf "delegate: %s" e
  | Ok child ->
    check "delegated certificate fully certified" true
      (Certificate.fully_certified child);
    check "covers at the meet" true
      (List.for_all
         (fun (cover : Certificate.cover) ->
           Security_class.equal cover.Certificate.e_max bottom)
         child.Certificate.covers);
    check "depth and cap recorded" true
      (match child.Certificate.delegation with
      | Some d ->
        d.Certificate.depth = 1
        && d.Certificate.cap = Some bottom
        && String.equal d.Certificate.delegated_by "front"
      | None -> false);
    check "expires no later than the parent" true
      (child.Certificate.expires_at = Some 8);
    (* The delegated certificate serves the worker's calls. *)
    check "delegated caller on the fast path" true
      (Kernel.certificate_admits w.kernel ~caller:"front/worker" ~subject:w.alice_sub
         store));
  (* Chain depth: 2 fits the profile, 3 exceeds it. *)
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front/worker"
       ~extension:"front/worker2" ~imports:[ store ] ()
   with
  | Ok child ->
    check "depth 2 inside the cap" true
      (match child.Certificate.delegation with
      | Some d -> d.Certificate.depth = 2
      | None -> false)
  | Error e -> Alcotest.failf "depth-2 delegate: %s" e);
  (match
     Kernel.delegate_certificate w.kernel ~parent:"front/worker2"
       ~extension:"front/worker3" ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "depth 3 granted past max_depth 2"
  | Error _ -> ());
  (* Principals the parent does not cover are dropped; a parent that
     is not fully certified refuses to delegate at all. *)
  let hollow =
    Certificate.issue ~monitor:(Kernel.monitor w.kernel) ~registry:(Clearance.create ())
      ~namespace:(Kernel.namespace w.kernel) ~extension:"hollow" ~imports:[ store ] ()
  in
  (match
     Certificate.delegate ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
       ~namespace:(Kernel.namespace w.kernel) ~parent:hollow ~extension:"orphan"
       ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "uncertified parent delegated"
  | Error _ -> ());
  (* An expired parent refuses too. *)
  let parent = Option.get (Kernel.certificate_of w.kernel "front") in
  (match
     Certificate.delegate ~monitor:(Kernel.monitor w.kernel) ~registry:w.registry
       ~namespace:(Kernel.namespace w.kernel) ~parent ~now:9 ~extension:"late"
       ~imports:[ store ] ()
   with
  | Ok _ -> Alcotest.fail "expired parent delegated"
  | Error _ -> ())

(* {1 CRL-style revocation} *)

let test_crl_revocation () =
  let w = build_world () in
  let epoch0 = Reference_monitor.policy_epoch (Kernel.monitor w.kernel) in
  (* By prefix: only front's proofs import under /ext/relay. *)
  check "prefix CRL revokes exactly the matching certificate" true
    (Kernel.revoke_by_prefix w.kernel (Path.of_string "/ext/relay") = 1);
  check "front revoked" true (Kernel.certificate_of w.kernel "front" = None);
  check "relay untouched" true (Kernel.certificate_of w.kernel "relay" <> None);
  check "relay still admits" true
    (Kernel.certificate_admits w.kernel ~caller:"relay" ~subject:w.alice_sub store);
  (* By principal: bob is covered by the remaining certificate. *)
  check "principal CRL sweeps the remaining cover" true
    (Kernel.revoke_by_principal w.kernel w.bob = 1);
  check "table empty" true (Kernel.certificates w.kernel = []);
  (* No global epoch bump: unrelated cached state is untouched. *)
  check "no policy-epoch bump" true
    (Reference_monitor.policy_epoch (Kernel.monitor w.kernel) = epoch0);
  (* A principal nobody covers revokes nothing. *)
  let w2 = build_world () in
  check "uncovered principal revokes nothing" true
    (Kernel.revoke_by_principal w2.kernel (Principal.individual "mallory") = 0);
  check "unmatched prefix revokes nothing" true
    (Kernel.revoke_by_prefix w2.kernel (Path.of_string "/nowhere") = 0)

(* {1 The twin-kernel differential oracle} *)

type otwin = {
  okernel : Kernel.t;
  store_meta : Meta.t;
  fetch_meta : Meta.t;
  svc_meta : Meta.t;
}

type oworld = {
  odb : Principal.Db.t;
  oregistry : Clearance.t;
  inds : Principal.individual array;
  grps : Principal.group array;  (* 0 staff (ACL-named), 1 eng (nested), 2 visitors *)
  subjects : Subject.t array;
  cert_side : otwin;  (* lifecycle certificates live *)
  full_side : otwin;  (* certificates revoked: every call fully checked *)
}

let oclasses hierarchy universe =
  [|
    Security_class.bottom hierarchy universe;
    Security_class.make
      (Level.of_name_exn hierarchy "organization")
      (Category.of_names universe [ "d1" ]);
    Security_class.top hierarchy universe;
  |]

let oprofile =
  Certificate.make_profile ~name:"oracle" ~prefixes:[ Path.of_string "/" ] ~max_depth:3
    ~validity:2 ()

let build_otwin db registry hierarchy universe admin inds grps ~certified =
  let kernel =
    Kernel.boot
      ~policy:(Policy.with_recheck Policy.default)
      ~registry ~db ~admin ~hierarchy ~universe ()
  in
  (* The target starts group-gated, so lifecycle certificates are born
     with a non-empty scoped dependency set. *)
  let store_meta =
    Meta.make ~owner:admin
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual admin);
             Acl.allow (Acl.Group grps.(0)) [ Access_mode.List; Access_mode.Execute ];
             Acl.allow Acl.Everyone [ Access_mode.List ];
           ])
      (Security_class.bottom hierarchy universe)
  in
  (match
     Kernel.install_proc kernel ~subject:(Kernel.admin_subject kernel) store ~meta:store_meta
       (Service.proc "get" 0 (Service.const (Value.int 7)))
   with
  | Ok () -> ()
  | Error e -> failwith (Service.error_to_string e));
  let alice = inds.(0) in
  let alice_sub =
    Subject.make alice (Option.get (Clearance.clearance_of registry alice))
  in
  let link ?profile ext =
    match Linker.link ?profile kernel ~subject:alice_sub ext with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "%a" Linker.pp_link_error e)
  in
  link
    (Extension.make ~name:"relay" ~author:alice ~imports:[ store ]
       ~provides:
         [ Extension.provided "fetch" 0 (fun ctx _args -> ctx.Service.call store []) ]
       ());
  link ~profile:oprofile
    (Extension.make ~name:"front" ~author:alice ~imports:[ fetch ] ());
  if not certified then begin
    Kernel.revoke_certificate kernel "relay";
    Kernel.revoke_certificate kernel "front"
  end;
  let meta_at path =
    match Namespace.find (Kernel.namespace kernel) (Path.of_string path) with
    | Ok node -> Namespace.meta node
    | Error _ -> failwith ("oracle twin: " ^ path ^ " missing")
  in
  {
    okernel = kernel;
    store_meta;
    fetch_meta = meta_at "/ext/relay/fetch";
    svc_meta = meta_at "/svc";
  }

let build_oworld () =
  let db = Principal.Db.create () in
  let admin = Principal.individual "admin" in
  Principal.Db.add_individual db admin;
  let inds = Array.map Principal.individual [| "alice"; "bob"; "carol"; "mallory" |] in
  Array.iter (Principal.Db.add_individual db) inds;
  let grps = Array.map Principal.group [| "staff"; "eng"; "visitors" |] in
  Array.iter (Principal.Db.add_group db) grps;
  (* staff >= eng (nested), alice in eng, bob in staff: edits to either
     group are inside the scoped dependency set; visitors is outside
     it. *)
  Principal.Db.add_member db grps.(0) (Principal.Grp grps.(1));
  Principal.Db.add_member db grps.(1) (Principal.Ind inds.(0));
  Principal.Db.add_member db grps.(0) (Principal.Ind inds.(1));
  let hierarchy = Level.hierarchy [ "local"; "organization"; "others" ] in
  let universe = Category.universe [ "d1"; "d2" ] in
  let klasses = oclasses hierarchy universe in
  let registry = Clearance.create () in
  Clearance.register registry ~trusted:true admin klasses.(2);
  (* mallory stays unregistered: outside every certificate's cover. *)
  Clearance.register registry inds.(0) klasses.(1);
  Clearance.register registry inds.(1) klasses.(0);
  Clearance.register registry inds.(2) klasses.(2);
  let subjects =
    [|
      Subject.make inds.(0) klasses.(1);
      Subject.make inds.(0) klasses.(0);
      Subject.make inds.(1) klasses.(0);
      Subject.make inds.(2) klasses.(2);
      Subject.make inds.(3) klasses.(0);
    |]
  in
  {
    odb = db;
    oregistry = registry;
    inds;
    grps;
    subjects;
    cert_side = build_otwin db registry hierarchy universe admin inds grps ~certified:true;
    full_side = build_otwin db registry hierarchy universe admin inds grps ~certified:false;
  }

let probes_total = ref 0
let fast_probes = ref 0

let cert_denied_total world =
  Audit.denied_total (Reference_monitor.audit (Kernel.monitor world.cert_side.okernel))

let probe world subject caller target =
  incr probes_total;
  let rf = Kernel.call world.full_side.okernel ~subject ~caller target [] in
  let denied_before = cert_denied_total world in
  if Kernel.certificate_admits world.cert_side.okernel ~caller ~subject target then
    incr fast_probes;
  let rc = Kernel.call world.cert_side.okernel ~subject ~caller target [] in
  let agree = rf = rc in
  (* A refusal on the lifecycle side must come out of the checked,
     audited path — the lifecycle never refuses (or grants) silently. *)
  let audited =
    match rc with
    | Error (Service.Denied _) -> cert_denied_total world > denied_before
    | Ok _ | Error _ -> true
  in
  agree && audited

(* {2 Churn: applied to both twins in lockstep}

   Decision-relevant state (ACLs, membership, policy, labels) mutates
   on both sides; lifecycle state (expiry ticks, CRL revocations,
   re-certification, delegation) mutates only the certificate side —
   it may darken the fast path, never change an answer. *)

let oracle_acls world =
  let alice = world.inds.(0) and bob = world.inds.(1) in
  [|
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ] ];
    Acl.of_entries
      [
        Acl.allow (Acl.Group world.grps.(0)) [ Access_mode.List; Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List ];
      ];
    Acl.of_entries
      [
        Acl.deny (Acl.Individual bob) [ Access_mode.Execute ];
        Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
      ];
    Acl.of_entries
      [ Acl.allow (Acl.Individual alice) [ Access_mode.List; Access_mode.Execute ] ];
    Acl.of_entries [ Acl.allow Acl.Everyone [ Access_mode.List ] ];
  |]

let oracle_policies =
  [|
    Policy.with_recheck Policy.default;
    Policy.default;
    Policy.dac_only;
    Policy.mac_only;
  |]

let twin_metas world = function
  | 0 -> world.cert_side.store_meta, world.full_side.store_meta
  | 1 -> world.cert_side.fetch_meta, world.full_side.fetch_meta
  | _ -> world.cert_side.svc_meta, world.full_side.svc_meta

(* Re-issue the lifecycle proofs on the certificate side only —
   exactly what a re-link does — with the oracle profile (2-epoch
   validity, so later expiry ticks bite) and a delegated child riding
   along when the parent qualifies. *)
let recertify world =
  let kernel = world.cert_side.okernel in
  List.iter
    (fun (name, imports) ->
      let certificate =
        Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry:world.oregistry
          ~namespace:(Kernel.namespace kernel) ~profile:oprofile
          ~now:(Kernel.cert_epoch kernel) ~extension:name ~imports ()
      in
      Kernel.note_certificate kernel certificate)
    [ "relay", [ store ]; "front", [ fetch; store ] ];
  match
    Kernel.delegate_certificate kernel ~parent:"front" ~extension:"front/worker"
      ~imports:[ store ] ()
  with
  | Ok _ -> ()
  | Error _ ->
    (* the parent did not qualify under current state: make sure no
       stale child certificate lingers from an earlier round *)
    Kernel.revoke_certificate kernel "front/worker"

let apply_churn world (kind, a, b) =
  match kind mod 8 with
  | 0 ->
    let variants = oracle_acls world in
    let acl = variants.(b mod Array.length variants) in
    let cert_meta, full_meta = twin_metas world (a mod 3) in
    Meta.set_acl_raw cert_meta acl;
    Meta.set_acl_raw full_meta acl
  | 1 ->
    (* membership churn in covered groups (staff, eng) and the
       uncovered one (visitors) — the shared db keeps it identical on
       both sides *)
    let group = world.grps.(a mod Array.length world.grps) in
    let member = Principal.Ind world.inds.(b mod Array.length world.inds) in
    (try
       if b mod 2 = 0 then Principal.Db.add_member world.odb group member
       else Principal.Db.remove_member world.odb group member
     with Invalid_argument _ -> ())
  | 2 ->
    let policy = oracle_policies.(b mod Array.length oracle_policies) in
    Reference_monitor.set_policy (Kernel.monitor world.cert_side.okernel) policy;
    Reference_monitor.set_policy (Kernel.monitor world.full_side.okernel) policy
  | 3 ->
    let hierarchy = Kernel.hierarchy world.cert_side.okernel in
    let universe = Kernel.universe world.cert_side.okernel in
    let klasses = oclasses hierarchy universe in
    let klass = klasses.(b mod Array.length klasses) in
    let cert_meta, full_meta = twin_metas world (a mod 3) in
    if b mod 2 = 0 then begin
      Meta.set_klass_raw cert_meta klass;
      Meta.set_klass_raw full_meta klass
    end
    else begin
      let label = if b mod 4 = 1 then Some klass else None in
      Meta.set_integrity_raw cert_meta label;
      Meta.set_integrity_raw full_meta label
    end
  | 4 ->
    (* expiry tick + eager sweep on the certificate side: certificates
       issued >= 2 recertifications ago fall off the fast path *)
    ignore (Kernel.advance_cert_epoch world.cert_side.okernel)
  | 5 ->
    (* CRL-style revocation on the certificate side *)
    if b mod 2 = 0 then
      ignore
        (Kernel.revoke_by_principal world.cert_side.okernel
           world.inds.(a mod Array.length world.inds))
    else
      ignore
        (Kernel.revoke_by_prefix world.cert_side.okernel
           (if a mod 2 = 0 then Path.of_string "/ext/relay" else Path.of_string "/svc"))
  | 6 ->
    (* unrelated churn: visitors gains or loses a guest; certificates
       whose deps exclude visitors must keep admitting through this *)
    let guest = Principal.individual (Printf.sprintf "guest-%d" (b mod 7)) in
    (try
       if b mod 2 = 0 then
         Principal.Db.add_member world.odb world.grps.(2) (Principal.Ind guest)
       else Principal.Db.remove_member world.odb world.grps.(2) (Principal.Ind guest)
     with Invalid_argument _ -> ())
  | _ -> recertify world

let oracle_relay = Path.of_string "/ext/front"
let oracle_targets = [ store; fetch; oracle_relay ]
let oracle_callers = [ "front"; "front/worker"; "relay"; "probe" ]

let prop_oracle =
  QCheck.Test.make ~name:"certificate lifecycle = full monitor under churn" ~count:120
    QCheck.(small_list (triple small_nat small_nat small_nat))
    (fun churn ->
      let world = build_oworld () in
      let ok = ref true in
      let sweep () =
        Array.iter
          (fun subject ->
            List.iter
              (fun caller ->
                List.iter
                  (fun target ->
                    if not (probe world subject caller target) then ok := false)
                  oracle_targets)
              oracle_callers)
          world.subjects
      in
      sweep ();
      List.iter
        (fun op ->
          apply_churn world op;
          sweep ())
        churn;
      sweep ();
      !ok)

let test_probe_volume () =
  (* Runs after the QCheck case by suite order; the oracle must have
     executed the mandated >= 10k randomized probes, and the lifecycle
     fast path must actually have served some of them. *)
  check "over 10k differential probes" true (!probes_total >= 10_000);
  check "lifecycle-admitted calls exercised" true (!fast_probes > 0)

let suite =
  [
    Alcotest.test_case "revoke closes certificate-minted handles" `Quick
      test_revoke_closes_handles;
    Alcotest.test_case "linked certificate is the kernel's" `Quick
      test_linked_certificate_is_the_kernels;
    Alcotest.test_case "empty registry certifies nothing" `Quick
      test_empty_registry_proves_nothing;
    Alcotest.test_case "scoped deps survive unrelated churn" `Quick test_scoped_survival;
    Alcotest.test_case "born stale under a racing batch" `Quick test_born_stale_under_batch;
    Alcotest.test_case "profiles gate modes and prefixes" `Quick test_profile_enforcement;
    Alcotest.test_case "expiry: lazy admits + eager sweep" `Quick test_expiry;
    Alcotest.test_case "delegation narrows at the meet, capped depth" `Quick
      test_delegation;
    Alcotest.test_case "CRL revocation is exact, no epoch bump" `Quick test_crl_revocation;
    QCheck_alcotest.to_alcotest prop_oracle;
    Alcotest.test_case "differential probe volume" `Quick test_probe_volume;
  ]
