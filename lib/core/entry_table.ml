module Make (K : sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end) =
struct
  (* Open addressing with linear probing over parallel arrays, at most
     three quarters full.  A slot's
     state lives in [hashes]: [empty], [dead] (a tombstone left by a
     removal) or the key's non-negative hash.  Levels and timestamps sit in
     an int array and an unboxed float array, so an entry costs no
     allocation beyond its key — a table of tens of thousands of entries is
     four flat blocks for the GC, not four small objects per entry. *)

  let empty = -1
  let dead = -2

  type t = {
    mutable keys : K.t array;
    mutable hashes : int array;
    mutable levels : int array;
    mutable stamps : Float.Array.t;
    mutable live : int;
    mutable used : int;  (** live entries plus tombstones *)
    mutable last_key : K.t;
    mutable last_hash : int;
        (** the last key hashed: a lookup followed by an insert of the same
            key hashes it once *)
  }

  (* Obj.magic 0 is an immediate, so the key array is never a flat float
     array whatever [K.t] is, and an empty slot holds nothing for the GC to
     follow. *)
  let no_key : K.t = Obj.magic 0

  let rec pow2 n c = if c >= n then c else pow2 n (2 * c)

  let alloc cap =
    {
      keys = Array.make cap no_key;
      hashes = Array.make cap empty;
      levels = Array.make cap 0;
      stamps = Float.Array.make cap 0.0;
      live = 0;
      used = 0;
      (* a fresh block no caller's key can be physically equal to *)
      last_key = Obj.magic (ref ());
      last_hash = 0;
    }

  (* The smallest power-of-two capacity holding [n] entries at a load of at
     most three quarters. *)
  let capacity n = pow2 (((4 * Stdlib.max 8 n) + 2) / 3) 16

  let create n = alloc (capacity n)
  let length t = t.live

  let hash_of t x =
    if x == t.last_key then t.last_hash
    else begin
      let h = K.hash x land max_int in
      t.last_key <- x;
      t.last_hash <- h;
      h
    end

  (* The slot holding [x], or -1. *)
  let find_slot t x h =
    let mask = Array.length t.hashes - 1 in
    let rec go i =
      let hi = Array.unsafe_get t.hashes i in
      if hi = empty then -1
      else if hi = h && K.equal (Array.unsafe_get t.keys i) x then i
      else go ((i + 1) land mask)
    in
    go (h land mask)

  (* Place a key known to be absent, reusing the first tombstone on its
     probe path. *)
  let place t x h level ts =
    let mask = Array.length t.hashes - 1 in
    let rec go i =
      let hi = Array.unsafe_get t.hashes i in
      if hi = empty || hi = dead then begin
        if hi = empty then t.used <- t.used + 1;
        t.keys.(i) <- x;
        t.hashes.(i) <- h;
        t.levels.(i) <- level;
        Float.Array.set t.stamps i ts;
        t.live <- t.live + 1
      end
      else go ((i + 1) land mask)
    in
    go (h land mask)

  (* Move every live entry into fresh arrays of [cap] slots, dropping the
     tombstones. *)
  let rebuild t cap =
    let old = { t with live = t.live } in
    let fresh = alloc cap in
    t.keys <- fresh.keys;
    t.hashes <- fresh.hashes;
    t.levels <- fresh.levels;
    t.stamps <- fresh.stamps;
    t.live <- 0;
    t.used <- 0;
    Array.iteri
      (fun i h ->
        if h >= 0 then place t old.keys.(i) h old.levels.(i) (Float.Array.get old.stamps i))
      old.hashes

  (* Keep the load (tombstones included) at most three quarters; a rebuild
     leaves it at most three eighths. *)
  let reserve t =
    if 4 * (t.used + 1) > 3 * Array.length t.hashes then rebuild t (capacity (2 * (t.live + 1)))

  (* Shrink a table left sparse (a fold sizes for every source's entries,
     then drops most of them) to the size [create] would pick. *)
  let compact t =
    let cap = capacity t.live in
    if Array.length t.hashes > 2 * cap then rebuild t cap

  (* Level held for [x], or -1 when absent. *)
  let level t x =
    let i = find_slot t x (hash_of t x) in
    if i < 0 then -1 else t.levels.(i)

  (* Insert or overwrite the level; a present key keeps the newer of its
     two timestamps.  Returns the previous level, -1 when [x] was absent. *)
  let upsert t x level ts =
    let h = hash_of t x in
    let i = find_slot t x h in
    if i >= 0 then begin
      let old = t.levels.(i) in
      t.levels.(i) <- level;
      if ts > Float.Array.get t.stamps i then Float.Array.set t.stamps i ts;
      old
    end
    else begin
      reserve t;
      place t x h level ts;
      -1
    end

  (* Insert a key the caller knows is absent. *)
  let add t x level ts =
    reserve t;
    place t x (hash_of t x) level ts

  let kill t i =
    t.keys.(i) <- no_key;
    t.hashes.(i) <- dead;
    t.live <- t.live - 1

  let remove t x =
    let i = find_slot t x (hash_of t x) in
    if i >= 0 then kill t i

  let iter f t =
    let hashes = t.hashes in
    for i = 0 to Array.length hashes - 1 do
      if Array.unsafe_get hashes i >= 0 then
        f t.keys.(i) t.levels.(i) (Float.Array.get t.stamps i)
    done

  (* The level-only traversals: a float handed to a closure is boxed, and
     the estimator's per-update membership pass must not allocate per
     entry. *)
  let iter_levels f t =
    let hashes = t.hashes in
    for i = 0 to Array.length hashes - 1 do
      if Array.unsafe_get hashes i >= 0 then f t.keys.(i) t.levels.(i)
    done

  let count_since t cutoff counts =
    let hashes = t.hashes and stamps = t.stamps in
    for i = 0 to Array.length hashes - 1 do
      if Array.unsafe_get hashes i >= 0 && Float.Array.unsafe_get stamps i >= cutoff then begin
        let l = t.levels.(i) in
        counts.(l) <- counts.(l) + 1
      end
    done

  let filter_levels f t =
    let hashes = t.hashes in
    for i = 0 to Array.length hashes - 1 do
      if Array.unsafe_get hashes i >= 0 then begin
        let l = f t.keys.(i) t.levels.(i) in
        if l < 0 then kill t i else t.levels.(i) <- l
      end
    done

  let fold f t acc =
    let acc = ref acc in
    iter (fun x l ts -> acc := f x l ts !acc) t;
    !acc
end
