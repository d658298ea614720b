type t = Random | MinRatio | MaxRatio

let name = function
  | Random -> "Random"
  | MinRatio -> "MinRatio"
  | MaxRatio -> "MaxRatio"

let of_string s =
  match String.lowercase_ascii s with
  | "random" -> Random
  | "minratio" | "min-ratio" -> MinRatio
  | "maxratio" | "max-ratio" -> MaxRatio
  | other -> invalid_arg ("Choice.of_string: unknown choice function " ^ other)

let all = [ Random; MinRatio; MaxRatio ]
