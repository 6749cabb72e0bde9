open Exsec_core
module Metrics = Exsec_obs.Metrics

let m_links = Metrics.counter "linker.links"
let m_link_failures = Metrics.counter "linker.link_failures"
let m_unloads = Metrics.counter "linker.unloads"
let m_certificates = Metrics.counter "linker.certificates_issued"
let m_chain_proofs = Metrics.counter "linker.chain_proofs"
let m_chain_handles = Metrics.counter "linker.chain_handles"

type link_error =
  | Import_denied of { import : Path.t; error : Service.error }
  | Extend_denied of { event : Path.t; error : Service.error }
  | Provide_failed of { at : Path.t; error : Service.error }
  | Init_failed of Service.error
  | Already_loaded of string
  | Quota_refused of string

let pp_link_error ppf = function
  | Import_denied { import; error } ->
    Format.fprintf ppf "import %a: %a" Path.pp import Service.pp_error error
  | Extend_denied { event; error } ->
    Format.fprintf ppf "extend %a: %a" Path.pp event Service.pp_error error
  | Provide_failed { at; error } ->
    Format.fprintf ppf "provide %a: %a" Path.pp at Service.pp_error error
  | Init_failed error -> Format.fprintf ppf "init: %a" Service.pp_error error
  | Already_loaded name -> Format.fprintf ppf "extension %s is already loaded" name
  | Quota_refused message -> Format.fprintf ppf "quota: %s" message

module Linked = struct
  type t = {
    kernel : Kernel.t;
    extension : Extension.t;
    import_table : (Path.t * Handle.h) list;
        (* each import is minted as a capability handle at link time;
           the handle pins the link-time (capped) subject, so calls
           through it are exactly the access the link authorized *)
    provided_paths : Path.t list;
    chain_table : (Path.t * Handle.h) list;
        (* provably-redundant transitive call sites (reached through
           other extensions' provides, never imported directly),
           pre-minted as capability handles by the chain analysis;
           generation-stamped like every handle, so drift fails closed *)
  }

  let extension linked = linked.extension
  let name linked = linked.extension.Extension.ext_name
  let imports linked = List.map fst linked.import_table
  let provided_paths linked = linked.provided_paths
  let certificate linked = Kernel.certificate_of linked.kernel (name linked)
  let chain_imports linked = List.map fst linked.chain_table

  let chain_handle linked path =
    Option.map snd (List.find_opt (fun (p, _) -> Path.equal p path) linked.chain_table)

  let call_chain linked path args =
    match List.find_opt (fun (p, _) -> Path.equal p path) linked.chain_table with
    | None ->
      Error (Service.Unresolved (Path.to_string path ^ ": not a certified chain target"))
    | Some (_, handle) -> Kernel.call_handle linked.kernel handle args

  let subject_for linked subject =
    match linked.extension.Extension.static_class with
    | None -> subject
    | Some klass -> Subject.with_ceiling subject klass

  let call linked ~subject path args =
    match List.find_opt (fun (p, _) -> Path.equal p path) linked.import_table with
    | None ->
      Error (Service.Unresolved (Path.to_string path ^ ": not in the import table"))
    | Some (_, _handle) ->
      let subject = subject_for linked subject in
      let checked = (Reference_monitor.policy (Kernel.monitor linked.kernel)).Policy.recheck_calls in
      Kernel.call ~checked linked.kernel ~subject
        ~caller:linked.extension.Extension.ext_name path args

  let import_handle linked path =
    Option.map snd
      (List.find_opt (fun (p, _) -> Path.equal p path) linked.import_table)

  let call_import linked path args =
    match List.find_opt (fun (p, _) -> Path.equal p path) linked.import_table with
    | None ->
      Error (Service.Unresolved (Path.to_string path ^ ": not in the import table"))
    | Some (_, handle) -> Kernel.call_handle linked.kernel handle args
end

let ext_dir name = Path.of_string ("/ext/" ^ name)

(* Resolve one import with [Execute] and mint its capability handle;
   the subject is already capped by the extension's static class. *)
let check_import kernel ~subject ~caller import =
  match Kernel.open_handle kernel ~subject ~caller import with
  | Ok handle -> Ok (import, handle)
  | Error error -> Error (Import_denied { import; error })

let check_extend kernel ~subject (ext : Extension.extends) =
  match
    Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.Extend
      ext.Extension.event
  with
  | Ok node -> (
    match Namespace.payload node with
    | Some Kernel.Event -> Ok ()
    | Some _ | None ->
      Error
        (Extend_denied
           {
             event = ext.Extension.event;
             error = Service.Unresolved (Path.to_string ext.Extension.event ^ ": not an event");
           }))
  | Error denial ->
    Error (Extend_denied { event = ext.Extension.event; error = Kernel.error_of_denial denial })

(* Expand SPIN-style domain imports into the concrete procedures
   currently under each interface mount point.  Each mount is resolved
   once, with [List] checked under the (capped) linking authority, so
   even discovering the domain's contents is access checked; its leaf
   entries are the procedures. *)
let expand_domains kernel ~subject domains =
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc domain ->
      let* paths = acc in
      List.fold_left
        (fun acc mount ->
          let* paths = acc in
          let denied denial =
            Error (Import_denied { import = mount; error = Kernel.error_of_denial denial })
          in
          match
            Resolver.resolve (Kernel.resolver kernel) ~subject ~mode:Access_mode.List mount
          with
          | Error denial -> denied denial
          | Ok node when Namespace.is_dir node ->
            Ok (paths @ List.map Namespace.path (Namespace.leaves node))
          | Ok _ -> denied (Resolver.Name_error (Namespace.Not_a_directory mount)))
        (Ok paths) (Domain.interfaces domain))
    (Ok []) domains

let rec first_error check = function
  | [] -> Ok ()
  | item :: rest -> (
    match check item with
    | Ok _ -> first_error check rest
    | Error e -> Error e)

let rollback kernel installed =
  List.iter
    (fun path ->
      match Namespace.remove (Kernel.namespace kernel) path with
      | Ok () | Error _ -> ())
    installed

let install_provides kernel ~subject (extension : Extension.t) =
  let dir = ext_dir extension.Extension.ext_name in
  let owner = extension.Extension.author in
  let klass =
    match extension.Extension.static_class with
    | Some klass -> klass
    | None -> Subject.effective_class subject
  in
  let dir_meta =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [ Acl.allow_all (Acl.Individual owner); Acl.allow Acl.Everyone [ Access_mode.List ] ])
      klass
  in
  let proc_meta () =
    Meta.make ~owner
      ~acl:
        (Acl.of_entries
           [
             Acl.allow_all (Acl.Individual owner);
             Acl.allow Acl.Everyone [ Access_mode.List; Access_mode.Execute ];
           ])
      klass
  in
  match Kernel.add_dir kernel ~subject dir ~meta:dir_meta with
  | Error error -> Error (Provide_failed { at = dir; error })
  | Ok () ->
    let rec install installed = function
      | [] -> Ok (List.rev installed)
      | (p : Extension.provided) :: rest -> (
        let path = Path.child dir p.Extension.at in
        let proc = Service.proc p.Extension.at p.Extension.arity p.Extension.body in
        match Kernel.install_proc kernel ~subject path ~meta:(proc_meta ()) proc with
        | Ok () -> install (path :: installed) rest
        | Error error ->
          rollback kernel (dir :: installed);
          Error (Provide_failed { at = path; error }))
    in
    install [ dir ] extension.Extension.provides
    |> Result.map (fun installed -> dir :: List.filter (fun p -> not (Path.equal p dir)) installed)

let register_handlers kernel ~subject (extension : Extension.t) =
  let klass =
    match extension.Extension.static_class with
    | Some klass -> klass
    | None -> Subject.effective_class subject
  in
  List.iter
    (fun (ext : Extension.extends) ->
      Dispatcher.register (Kernel.dispatcher kernel) ~event:ext.Extension.event
        {
          Dispatcher.owner = extension.Extension.ext_name;
          klass;
          guard = ext.Extension.guard;
          impl = ext.Extension.handler_body;
        })
    extension.Extension.extends

let loaded_by kernel author =
  List.length
    (List.filter
       (fun name ->
         match Kernel.find_loaded kernel name with
         | Some (ext, _) -> Principal.equal_individual ext.Extension.author author
         | None -> false)
       (Kernel.loaded_extensions kernel))

let link_unmetered ?profile kernel ~subject (extension : Extension.t) =
  let name = extension.Extension.ext_name in
  let quota_check =
    Quota.check_extensions (Kernel.quota kernel) extension.Extension.author
      ~loaded:(loaded_by kernel extension.Extension.author)
  in
  if Kernel.find_loaded kernel name <> None then Error (Already_loaded name)
  else (
    match quota_check with
    | Error denial -> Error (Quota_refused (Format.asprintf "%a" Quota.pp_denial denial))
    | Ok () ->
  begin
    (* All link-time checks run under the extension's capped authority. *)
    let capped =
      match extension.Extension.static_class with
      | None -> subject
      | Some klass -> Subject.with_ceiling subject klass
    in
    let ( let* ) = Result.bind in
    let* domain_imports =
      expand_domains kernel ~subject:capped extension.Extension.import_domains
    in
    let all_imports =
      List.sort_uniq Path.compare (extension.Extension.imports @ domain_imports)
    in
    (* From here on failures must also revoke any import handles
       already minted for this extension — linking stays transactional
       for capabilities too. *)
    let result =
    let* import_table =
      List.fold_left
        (fun acc import ->
          let* table = acc in
          let* entry = check_import kernel ~subject:capped ~caller:name import in
          Ok (entry :: table))
        (Ok []) all_imports
      |> Result.map List.rev
    in
    let* () = first_error (check_extend kernel ~subject:capped) extension.Extension.extends in
    (* Publication also happens at the extension's (capped) authority:
       its directory and procedures carry the extension's class. *)
    let* installed = install_provides kernel ~subject:capped extension in
    register_handlers kernel ~subject extension;
    (* With a clearance registry at hand, prove the import set over
       the whole registered session space: imports proved Always_allow
       skip the monitor per call until the proof's state moves
       (Exsec_analysis.Certificate).  The chain analysis widens the
       proof interprocedurally: call sites reachable from this
       extension's code through other extensions' provides — nested
       calls carry the original caller's name, so they consult THIS
       certificate — that prove Always_allow for every registered
       session are folded into the certificate (soundly: a proof over
       the full session interval covers every capped sub-session) and
       pre-minted as capability handles.  Handler-crossing edges are
       trimmed first: past event dispatch, calls run under the handler
       owner's name and consult that extension's own certificate. *)
    let certificate, chain_targets =
      match Kernel.registry kernel with
      | None -> None, []
      | Some registry ->
        let module Cg = Exsec_analysis.Callgraph in
        let graph =
          Kernel.call_graph ~extra:[ extension ] kernel
          |> Cg.filter_edges (fun edge -> not edge.Cg.rebinds_caller)
        in
        let entries =
          List.map
            (fun principal ->
              {
                Cg.entry_principal = principal;
                entry_node = Cg.code_node name;
                entry_cap = extension.Extension.static_class;
              })
            (Clearance.registered registry)
        in
        let chain_report =
          Exsec_analysis.Chain_certify.analyze ~db:(Kernel.db kernel) ~registry
            ~policy:(Reference_monitor.policy (Kernel.monitor kernel))
            (Cg.with_entries graph entries)
        in
        let transitive =
          List.filter
            (fun path -> not (List.exists (Path.equal path) all_imports))
            (Exsec_analysis.Chain_certify.redundant_targets chain_report)
        in
        let certificate =
          Exsec_analysis.Certificate.issue ~monitor:(Kernel.monitor kernel) ~registry
            ~namespace:(Kernel.namespace kernel)
            ?static_class:extension.Extension.static_class ?profile
            ~now:(Kernel.cert_epoch kernel) ~extension:name
            ~imports:(all_imports @ transitive) ()
        in
        Some certificate, transitive
    in
    Metrics.add m_chain_proofs (List.length chain_targets);
    (* The certificate enters the kernel table BEFORE the chain table
       is minted: chain handles exist only on the strength of the
       chain proofs folded into the certificate, so they must mint
       through the certificate-admitted path and be marked with its
       lineage — revoking or expiring the certificate then closes
       exactly them.  (Import handles were minted above, against full
       monitor decisions; they carry their own justification.)  A
       failure below revokes the certificate again, so a failed link
       leaves no certificate behind. *)
    Option.iter (Kernel.note_certificate kernel) certificate;
    let chain_proved path =
      match certificate with
      | None -> false
      | Some certificate -> (
        match Exsec_analysis.Certificate.verdict_for certificate path with
        | Some verdict ->
          Exsec_analysis.Verdict.equal verdict Exsec_analysis.Verdict.Always_allow
        | None -> false)
    in
    let chain_table =
      List.filter_map
        (fun path ->
          (* A site the certificate itself did not certify — outside
             the profile's modes or prefixes — gets no pre-minted
             handle: the chain table carries certificate lineage only. *)
          if not (chain_proved path) then None
          else
            match Kernel.open_handle kernel ~subject:capped ~caller:name path with
            | Ok handle ->
              Metrics.incr m_chain_handles;
              Some (path, handle)
            | Error _ ->
              (* the proved state moved between analysis and mint: fail
                 closed, the checked path still covers the site *)
              None)
        chain_targets
    in
    let linked =
      {
        Linked.kernel; extension; import_table; provided_paths = installed; chain_table;
      }
    in
    let finish () =
      Kernel.note_loaded kernel extension ~installed;
      Ok linked
    in
    match extension.Extension.init with
    | None -> finish ()
    | Some init -> (
      let ctx =
        Kernel.make_ctx kernel ~subject:(Linked.subject_for linked subject) ~caller:name
      in
      match init ctx with
      | Ok () -> finish ()
      | Error error ->
        Dispatcher.unregister_owner (Kernel.dispatcher kernel) name;
        rollback kernel (List.rev installed);
        Error (Init_failed error))
    in
    (match result with
    | Ok _ -> ()
    | Error _ ->
      Kernel.revoke_certificate kernel name;
      ignore (Kernel.close_handles_for kernel name));
    result
  end)

let link ?profile kernel ~subject extension =
  let result = link_unmetered ?profile kernel ~subject extension in
  (match result with
  | Ok linked ->
    Metrics.incr m_links;
    if Option.is_some (Linked.certificate linked) then Metrics.incr m_certificates
  | Error _ -> Metrics.incr m_link_failures);
  result

let unload kernel ~subject name =
  match Kernel.find_loaded kernel name with
  | None -> Error (Service.Unresolved (name ^ ": not loaded"))
  | Some (_extension, installed) ->
    let rec remove_all = function
      | [] ->
        Dispatcher.unregister_owner (Kernel.dispatcher kernel) name;
        Kernel.forget_loaded kernel name;
        Metrics.incr m_unloads;
        Ok ()
      | path :: rest -> (
        match Resolver.remove (Kernel.resolver kernel) ~subject path with
        | Ok () -> remove_all rest
        | Error denial -> Error (Kernel.error_of_denial denial))
    in
    (* Leaves first, then the extension directory. *)
    remove_all (List.rev installed)
