let default_domains () =
  Stdlib.max 1 (Stdlib.min 4 (Domain.recommended_domain_count () - 1))

(* Work-stealing assignment: every domain (including the caller) pulls the
   next unclaimed index from a shared atomic counter, so a workload whose
   cost is monotone in index — the accuracy experiments sweep stream length
   exactly like that — no longer lands all its heavy trials on the last
   domain the way contiguous slicing did.  Results are written back at
   their original index, so order is preserved. *)
let map ?domains f items =
  let domains = match domains with Some d -> Stdlib.max 1 d | None -> default_domains () in
  let n = List.length items in
  if domains = 1 || n <= 1 then List.map f items
  else begin
    let items = Array.of_list items in
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let work () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          results.(i) <- Some (f items.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      Array.init (Stdlib.min (domains - 1) (n - 1)) (fun _ -> Domain.spawn work)
    in
    let caller_exn = match work () with () -> None | exception e -> Some e in
    let spawned_exn =
      Array.fold_left
        (fun acc d ->
          match Domain.join d with
          | () -> acc
          | exception e -> ( match acc with None -> Some e | Some _ -> acc))
        None spawned
    in
    (match (caller_exn, spawned_exn) with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ());
    Array.to_list
      (Array.map (function Some y -> y | None -> assert false) results)
  end
