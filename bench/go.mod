module memqlat/bench

go 1.22

require memqlat v0.0.0

replace memqlat => ../
