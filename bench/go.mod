module coopscan/bench

go 1.24

require coopscan v0.0.0

replace coopscan => ../
