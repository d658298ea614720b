(* The accumulator lives in 8 bytes rather than in a mutable [int64]
   field: a field holds a boxed [Int64], so every byte hashed would
   allocate one.  Each function below loads the state once, folds its
   bytes through a local that the compiler keeps unboxed, and stores it
   back: hashing allocates nothing per byte. *)
type t = Bytes.t

(* FNV-1a, 64-bit variant. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let[@inline] get d = Bytes.get_int64_le d 0
let[@inline] set d h = Bytes.set_int64_le d 0 h

let create () =
  let d = Bytes.create 8 in
  set d fnv_offset;
  d

let[@inline] step h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let[@inline] fold_int64 h x =
  let h = ref h in
  for k = 0 to 7 do
    h := step !h (Int64.to_int (Int64.shift_right_logical x (8 * k)))
  done;
  !h

let fold_sub h s pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  !h

let[@inline] int64 d x = set d (fold_int64 (get d) x)
let[@inline] int d i = int64 d (Int64.of_int i)
let float d f = int64 d (Int64.bits_of_float f)
let bool d b = set d (step (get d) (if b then 1 else 0))

let string d s =
  let h = fold_int64 (get d) (Int64.of_int (String.length s)) in
  set d (fold_sub h s 0 (String.length s))

let to_hex d = Printf.sprintf "%016Lx" (get d)

let sum64 s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Digest.sum64: range outside the string";
  fold_sub fnv_offset s pos len

let of_string s = Printf.sprintf "%016Lx" (sum64 s ~pos:0 ~len:(String.length s))

let app d (a : Model.App.t) =
  string d a.name;
  float d a.w;
  float d a.s;
  float d a.f;
  float d a.footprint;
  float d a.m0;
  float d a.c0

let platform d (p : Model.Platform.t) =
  float d p.p;
  float d p.cs;
  float d p.ls;
  float d p.ll;
  float d p.alpha

let add_instance d ~platform:pl ~apps =
  platform d pl;
  int d (Array.length apps);
  Array.iter (app d) apps

let instance ~platform ~apps =
  let d = create () in
  add_instance d ~platform ~apps;
  to_hex d

let trial ~kind ~platform ~apps ~policies ~state =
  let d = create () in
  string d kind;
  add_instance d ~platform ~apps;
  int d (List.length policies);
  List.iter (string d) policies;
  int64 d state;
  to_hex d

let tagged ~tag ~state =
  let d = create () in
  string d tag;
  int64 d state;
  to_hex d
