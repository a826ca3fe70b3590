module diva/benchmark

go 1.23

require diva v0.0.0

replace diva => ../
