module iwscan/bench

go 1.22

require iwscan v0.0.0

replace iwscan => ../
