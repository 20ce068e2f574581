module mpdash/bench

go 1.22

require mpdash v0.0.0

replace mpdash => ../
